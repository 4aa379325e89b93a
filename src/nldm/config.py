"""Experiment configuration: typed dataclasses plus strict JSON parsing.

A configuration names a catalog system, the training and test series to
simulate from it, the model shape, and optionally a basin scan and the
integrator tolerances for the series.  Parsing
is strict: unknown or missing keys are reported by name, every value
must have its field's JSON type, every series must imply the same
sampling interval, and a basin section must describe a grid the basin
module can scan.  ``config_to_dict`` writes every field back out.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .basin import _check_attractors, _free_axes
from .core import _dt_differs
from .odes import IntegratorSettings, make_system

__all__ = [
    "ConfigError",
    "NoiseSpec",
    "SeriesSpec",
    "ModelSpec",
    "BasinSpec",
    "SystemSpec",
    "ExperimentConfig",
    "config_from_dict",
    "config_to_dict",
    "derived_seed",
]


class ConfigError(ValueError):
    """A configuration is malformed; the message names the field."""


@dataclass(frozen=True)
class NoiseSpec:
    sigma_pct: float
    seed: int | None = None


@dataclass(frozen=True)
class SeriesSpec:
    ic: tuple[float, ...]
    t_span: tuple[float, float]
    num_samples: int
    noise: NoiseSpec | None = None

    @property
    def dt(self) -> float:
        return (self.t_span[1] - self.t_span[0]) / (self.num_samples - 1)


@dataclass(frozen=True)
class ModelSpec:
    delays: int
    degree: int


@dataclass(frozen=True)
class BasinSpec:
    window: tuple[tuple[float, float], tuple[float, float]]
    resolution: int
    steps: int = 1000
    tol: float = 0.05
    fixed: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True)
class SystemSpec:
    ident: str
    params: dict = field(default_factory=dict)

    def __hash__(self):
        return hash((self.ident, tuple(sorted(self.params.items()))))


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemSpec
    model: ModelSpec
    train: tuple[SeriesSpec, ...]
    test: tuple[SeriesSpec, ...] = ()
    basin: BasinSpec | None = None
    output_dir: str = "runs/experiment"
    global_seed: int = 0
    integrator: IntegratorSettings | None = None


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return mapping[key]


def _reject_unknown(mapping: dict, spec, where: str):
    """``mapping`` must be a dict whose keys are fields of dataclass ``spec``."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping, got {mapping!r}")
    unknown = sorted(set(mapping) - {f.name for f in fields(spec)})
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")


# The Python types a field of each kind accepts (a tuple spells a JSON list,
# as in ``asdict`` output); a bool is none of them.
_ACCEPTS = {int: (int,), float: (int, float), list: (list, tuple), dict: (dict,)}


def _typed(kind, value, name: str):
    """``kind(value)`` if ``value`` has the field's type, else a ConfigError
    naming the field: an int field takes only integers, a float field
    finite integers or reals (JSON's NaN and Infinity parse as floats), a
    list field a list and a dict field a mapping."""
    if isinstance(value, bool) or not isinstance(value, _ACCEPTS[kind]):
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")
    if kind is not float:
        return kind(value)
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


def _vector(value, name: str) -> tuple[float, ...]:
    return tuple(_typed(float, v, name) for v in _typed(list, value, name))


def _parse_noise(raw, where: str) -> NoiseSpec | None:
    if raw is None:
        return None
    _reject_unknown(raw, NoiseSpec, where)
    sigma_pct = _typed(float, _require(raw, "sigma_pct", where), f"{where}.sigma_pct")
    if sigma_pct < 0:
        raise ConfigError(f"sigma_pct must be >= 0 in {where}, got {sigma_pct}")
    seed = raw.get("seed")
    if seed is not None:
        seed = _typed(int, seed, f"{where}.seed")
        if seed < 0:
            raise ConfigError(f"seed must be >= 0 in {where}, got {seed}")
    return NoiseSpec(sigma_pct=sigma_pct, seed=seed)


def _parse_series(raw, where: str) -> SeriesSpec:
    _reject_unknown(raw, SeriesSpec, where)
    ic = _vector(_require(raw, "ic", where), f"{where}.ic")
    if not ic:
        raise ConfigError(f"ic must be a non-empty vector in {where}")
    t_span = _vector(_require(raw, "t_span", where), f"{where}.t_span")
    if len(t_span) != 2:
        raise ConfigError(f"t_span must be [start, end] in {where}")
    if not t_span[1] > t_span[0]:
        raise ConfigError(f"t_span must increase in {where}, got {t_span}")
    num_samples = _typed(int, _require(raw, "num_samples", where), f"{where}.num_samples")
    if num_samples < 2:
        raise ConfigError(f"num_samples must be >= 2 in {where}, got {num_samples}")
    noise = _parse_noise(raw.get("noise"), f"{where}.noise")
    return SeriesSpec(ic=ic, t_span=t_span, num_samples=num_samples, noise=noise)


def _parse_basin(raw, catalog) -> BasinSpec | None:
    if raw is None:
        return None
    where = "basin"
    _reject_unknown(raw, BasinSpec, where)
    window_raw = _typed(list, _require(raw, "window", where), "basin.window")
    window = tuple(_vector(r, "basin.window") for r in window_raw)
    if len(window) != 2 or any(len(r) != 2 for r in window):
        raise ConfigError("basin.window must be [[x_lo, x_hi], [y_lo, y_hi]]")
    if not (window[0][1] > window[0][0] and window[1][1] > window[1][0]):
        raise ConfigError(f"basin.window must have positive extent, got {window}")
    resolution = _typed(int, _require(raw, "resolution", where), "basin.resolution")
    if resolution < 2:
        raise ConfigError(f"basin.resolution must be >= 2, got {resolution}")
    steps = _typed(int, raw.get("steps", BasinSpec.steps), "basin.steps")
    if steps < 1:
        raise ConfigError(f"basin.steps must be >= 1, got {steps}")
    tol = _typed(float, raw.get("tol", BasinSpec.tol), "basin.tol")
    if not tol > 0:
        raise ConfigError(f"basin.tol must be positive, got {tol}")
    fixed_raw = raw.get("fixed", {})
    if not isinstance(fixed_raw, dict):
        raise ConfigError(f"basin.fixed must map axes to values, got {fixed_raw!r}")
    fixed = {}
    for key, value in fixed_raw.items():
        try:
            axis = int(key, 10)  # JSON keys are strings; only a string parses
        except (TypeError, ValueError):
            raise ConfigError(f"basin.fixed axis must be int, got {key!r}") from None
        if axis in fixed:
            raise ConfigError(f"basin.fixed names axis {axis} twice")
        fixed[axis] = _typed(float, value, "basin.fixed value")
    try:  # the basin module's own rules for a scan of this system
        _check_attractors(catalog)
        _free_axes(catalog.num_states, fixed)
    except ValueError as exc:
        raise ConfigError(f"basin: {exc}") from None
    return BasinSpec(window=window, resolution=resolution, steps=steps, tol=tol,
                     fixed=tuple(sorted(fixed.items())))


def _parse_integrator(raw) -> IntegratorSettings:
    _reject_unknown(raw, IntegratorSettings, "integrator")
    tols = {key: _typed(float, value, f"integrator.{key}") for key, value in raw.items()}
    for key, value in tols.items():
        if not value > 0:
            raise ConfigError(f"integrator.{key} must be positive, got {value}")
    return IntegratorSettings(**tols)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Parse and validate a configuration mapping (as loaded from JSON)."""
    _reject_unknown(raw, ExperimentConfig, "config")
    system_raw = _require(raw, "system", "config")
    _reject_unknown(system_raw, SystemSpec, "system")
    params = _typed(dict, system_raw.get("params", {}), "system.params")
    system = SystemSpec(
        ident=str(_require(system_raw, "ident", "system")),
        params={str(k): _typed(float, v, f"system.params.{k}") for k, v in params.items()},
    )
    try:
        catalog = make_system(system.ident, **system.params)
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc

    model_raw = _require(raw, "model", "config")
    _reject_unknown(model_raw, ModelSpec, "model")
    model = ModelSpec(
        delays=_typed(int, _require(model_raw, "delays", "model"), "model.delays"),
        degree=_typed(int, _require(model_raw, "degree", "model"), "model.degree"),
    )
    if model.delays < 1:
        raise ConfigError(f"model.delays must be >= 1, got {model.delays}")
    if model.degree < 1:
        raise ConfigError(f"model.degree must be >= 1, got {model.degree}")

    train_raw = _typed(list, _require(raw, "train", "config"), "train")
    if not train_raw:
        raise ConfigError("train must list at least one series")
    train = tuple(
        _parse_series(entry, f"train[{i}]") for i, entry in enumerate(train_raw)
    )
    test = tuple(
        _parse_series(entry, f"test[{i}]")
        for i, entry in enumerate(_typed(list, raw.get("test") or [], "test"))
    )

    for role, entries in (("train", train), ("test", test)):
        for i, entry in enumerate(entries):
            if len(entry.ic) != catalog.num_states:
                raise ConfigError(
                    f"{role}[{i}].ic has {len(entry.ic)} entries, system "
                    f"{system.ident!r} has {catalog.num_states} states"
                )
            if entry.num_samples < model.delays + 1:
                raise ConfigError(
                    f"{role}[{i}].num_samples={entry.num_samples} cannot "
                    f"support {model.delays} delays"
                )

    dts = [entry.dt for entry in train + test]
    for i, dt in enumerate(dts[1:], start=1):
        if _dt_differs(dt, dts[0]):
            raise ConfigError(
                f"all series must share one sampling interval; series {i} "
                f"implies dt={dt}, series 0 implies dt={dts[0]}"
            )

    basin = _parse_basin(raw.get("basin"), catalog)
    output_dir = raw.get("output_dir", ExperimentConfig.output_dir)
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError(f"output_dir must be a non-empty string, got {output_dir!r}")
    global_seed = _typed(int, raw.get("global_seed", ExperimentConfig.global_seed), "global_seed")
    if global_seed < 0:
        raise ConfigError(f"global_seed must be >= 0, got {global_seed}")

    return ExperimentConfig(
        system=system,
        model=model,
        train=train,
        test=test,
        basin=basin,
        output_dir=output_dir,
        global_seed=global_seed,
        integrator=_parse_integrator(raw["integrator"]) if "integrator" in raw else None,
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    """Every field of ``config`` as JSON-ready values, the inverse of
    ``config_from_dict`` (up to list/tuple spelling).  ``basin.fixed``
    becomes an axis-to-value mapping and absent top-level sections are
    left out; other absent values are written as ``None``."""
    raw = asdict(config)
    if config.basin is not None:
        raw["basin"]["fixed"] = {str(axis): value for axis, value in config.basin.fixed}
    return {key: value for key, value in raw.items() if value is not None}


def derived_seed(global_seed: int, role: str, index: int) -> int:
    """Deterministic per-series noise seed when none is given explicitly."""
    role_code = {"train": 0, "test": 1}[role]
    sequence = np.random.SeedSequence([global_seed, role_code, index])
    return int(sequence.generate_state(1)[0])
