"""Experiment configuration: typed dataclasses plus strict JSON parsing.

A configuration names a catalog system, the training and test series to
simulate from it, the model shape, and optionally a basin scan and the
integrator tolerances for the series.  Parsing
is strict: unknown or missing keys are reported by name, and every
series must imply the same sampling interval.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

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


def _reject_unknown(mapping: dict, allowed, where: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping, got {mapping!r}")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")


def _number(kind, value, name: str):
    """``kind(value)``, or a ConfigError naming the field."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}") from None


def _vector(value, name: str) -> tuple[float, ...]:
    return tuple(_number(float, v, name) for v in _number(list, value, name))


def _parse_noise(raw, where: str) -> NoiseSpec | None:
    if raw is None:
        return None
    _reject_unknown(raw, ("sigma_pct", "seed"), where)
    sigma_pct = _number(float, _require(raw, "sigma_pct", where), f"{where}.sigma_pct")
    if sigma_pct < 0:
        raise ConfigError(f"sigma_pct must be >= 0 in {where}, got {sigma_pct}")
    seed = raw.get("seed")
    if seed is not None:
        seed = _number(int, seed, f"{where}.seed")
        if seed < 0:
            raise ConfigError(f"seed must be >= 0 in {where}, got {seed}")
    return NoiseSpec(sigma_pct=sigma_pct, seed=seed)


def _parse_series(raw, where: str) -> SeriesSpec:
    _reject_unknown(raw, ("ic", "t_span", "num_samples", "noise"), where)
    ic = _vector(_require(raw, "ic", where), f"{where}.ic")
    if not ic or not all(np.isfinite(ic)):
        raise ConfigError(f"ic must be a non-empty finite vector in {where}")
    t_span = _vector(_require(raw, "t_span", where), f"{where}.t_span")
    if len(t_span) != 2:
        raise ConfigError(f"t_span must be [start, end] in {where}")
    if not t_span[1] > t_span[0]:
        raise ConfigError(f"t_span must increase in {where}, got {t_span}")
    num_samples = _number(int, _require(raw, "num_samples", where), f"{where}.num_samples")
    if num_samples < 2:
        raise ConfigError(f"num_samples must be >= 2 in {where}, got {num_samples}")
    noise = _parse_noise(raw.get("noise"), f"{where}.noise")
    return SeriesSpec(ic=ic, t_span=t_span, num_samples=num_samples, noise=noise)


def _parse_basin(raw, num_states: int) -> BasinSpec | None:
    if raw is None:
        return None
    where = "basin"
    _reject_unknown(raw, ("window", "resolution", "steps", "tol", "fixed"), where)
    window_raw = _number(list, _require(raw, "window", where), "basin.window")
    window = tuple(_vector(r, "basin.window") for r in window_raw)
    if len(window) != 2 or any(len(r) != 2 for r in window):
        raise ConfigError("basin.window must be [[x_lo, x_hi], [y_lo, y_hi]]")
    if not (window[0][1] > window[0][0] and window[1][1] > window[1][0]):
        raise ConfigError(f"basin.window must have positive extent, got {window}")
    resolution = _number(int, _require(raw, "resolution", where), "basin.resolution")
    if resolution < 2:
        raise ConfigError(f"basin.resolution must be >= 2, got {resolution}")
    steps = _number(int, raw.get("steps", 1000), "basin.steps")
    if steps < 1:
        raise ConfigError(f"basin.steps must be >= 1, got {steps}")
    tol = _number(float, raw.get("tol", 0.05), "basin.tol")
    if not tol > 0:
        raise ConfigError(f"basin.tol must be positive, got {tol}")
    fixed_raw = raw.get("fixed", {})
    if not isinstance(fixed_raw, dict):
        raise ConfigError(f"basin.fixed must map axes to values, got {fixed_raw!r}")
    fixed = tuple(sorted(
        (_number(int, axis, "basin.fixed axis"), _number(float, value, "basin.fixed value"))
        for axis, value in fixed_raw.items()
    ))
    if any(not 0 <= axis < num_states for axis, _ in fixed):
        raise ConfigError(f"basin.fixed axes must lie in 0..{num_states - 1}, got {fixed}")
    return BasinSpec(window=window, resolution=resolution, steps=steps, tol=tol, fixed=fixed)


def _parse_integrator(raw) -> IntegratorSettings:
    _reject_unknown(raw, ("rel_tol", "abs_tol"), "integrator")
    tols = {key: _number(float, value, f"integrator.{key}") for key, value in raw.items()}
    for key, value in tols.items():
        if not 0 < value < np.inf:
            raise ConfigError(f"integrator.{key} must be positive and finite, got {value}")
    return IntegratorSettings(**tols)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Parse and validate a configuration mapping (as loaded from JSON)."""
    _reject_unknown(
        raw,
        ("system", "model", "train", "test", "basin", "output_dir", "global_seed",
         "integrator"),
        "config",
    )
    system_raw = _require(raw, "system", "config")
    _reject_unknown(system_raw, ("ident", "params"), "system")
    params = _number(dict, system_raw.get("params", {}), "system.params")
    system = SystemSpec(
        ident=str(_require(system_raw, "ident", "system")),
        params={str(k): _number(float, v, f"system.params.{k}") for k, v in params.items()},
    )
    try:
        catalog = make_system(system.ident, **system.params)
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc

    model_raw = _require(raw, "model", "config")
    _reject_unknown(model_raw, ("delays", "degree"), "model")
    model = ModelSpec(
        delays=_number(int, _require(model_raw, "delays", "model"), "model.delays"),
        degree=_number(int, _require(model_raw, "degree", "model"), "model.degree"),
    )
    if model.delays < 1:
        raise ConfigError(f"model.delays must be >= 1, got {model.delays}")
    if model.degree < 1:
        raise ConfigError(f"model.degree must be >= 1, got {model.degree}")

    train_raw = _number(list, _require(raw, "train", "config"), "train")
    if not train_raw:
        raise ConfigError("train must list at least one series")
    train = tuple(
        _parse_series(entry, f"train[{i}]") for i, entry in enumerate(train_raw)
    )
    test = tuple(
        _parse_series(entry, f"test[{i}]")
        for i, entry in enumerate(_number(list, raw.get("test") or [], "test"))
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

    basin = _parse_basin(raw.get("basin"), catalog.num_states)
    output_dir = raw.get("output_dir", "runs/experiment")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError(f"output_dir must be a non-empty string, got {output_dir!r}")
    global_seed = _number(int, raw.get("global_seed", 0), "global_seed")
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
    """Inverse of ``config_from_dict`` (up to list/tuple spelling)."""
    raw = asdict(config)
    raw["train"] = [_series_dict(entry) for entry in config.train]
    raw["test"] = [_series_dict(entry) for entry in config.test]
    if config.basin is None:
        raw.pop("basin")
    else:
        raw["basin"] = {
            "window": [list(config.basin.window[0]), list(config.basin.window[1])],
            "resolution": config.basin.resolution,
            "steps": config.basin.steps,
            "tol": config.basin.tol,
        }
        if config.basin.fixed:
            raw["basin"]["fixed"] = {str(axis): value for axis, value in config.basin.fixed}
        else:
            raw["basin"].pop("fixed", None)
    raw["system"] = {"ident": config.system.ident, "params": dict(config.system.params)}
    raw["model"] = {"delays": config.model.delays, "degree": config.model.degree}
    if config.integrator is None:
        raw.pop("integrator")
    else:
        raw["integrator"] = {
            "rel_tol": config.integrator.rel_tol, "abs_tol": config.integrator.abs_tol
        }
    return raw


def _series_dict(entry: SeriesSpec) -> dict:
    out = {
        "ic": list(entry.ic),
        "t_span": list(entry.t_span),
        "num_samples": entry.num_samples,
    }
    if entry.noise is not None:
        noise = {"sigma_pct": entry.noise.sigma_pct}
        if entry.noise.seed is not None:
            noise["seed"] = entry.noise.seed
        out["noise"] = noise
    return out


def derived_seed(global_seed: int, role: str, index: int) -> int:
    """Deterministic per-series noise seed when none is given explicitly."""
    role_code = {"train": 0, "test": 1}[role]
    sequence = np.random.SeedSequence([global_seed, role_code, index])
    return int(sequence.generate_state(1)[0])
