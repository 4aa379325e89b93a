"""Experiment configuration: typed dataclasses read by one strict walk.

A configuration names a catalog system, the training and test series to
simulate from it, the model shape, and optionally a basin scan and the
integrator tolerances for the series.  The dataclasses below are the
schema: ``config_from_dict`` walks their fields and type hints, rejects
unknown and missing keys, and checks every value's JSON type (an ``int``
takes an integer, a ``float`` a finite number, a ``str`` a non-empty
string, a tuple a list and a dataclass or dict an object), naming the
field by its path, e.g. ``train[0].noise.seed``.  A nested optional field
takes ``null``; a top-level section is either given or left out.  Each
value rule lives on the type that owns it, in its ``__post_init__`` or in
the library function it calls, and its ``ValueError`` comes back as a
``ConfigError`` with the field's path.  ``config_from_dict`` itself checks
only what spans sections: the system, each series against the system and
the model, one shared sampling interval, the model's feature count, and
the basin scan against its system.  ``config_to_dict`` writes every field
back out.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, field, fields, is_dataclass
from functools import cache
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .basin import _check_attractors, _check_capture, _check_window, _free_axes
from .core import FeatureConfig, _check_positive, _dt_differs, record
from .odes import IntegratorSettings, _check_noise, _check_span, make_system

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


@record
class NoiseSpec:
    """Gaussian noise on a series, ``sigma_pct`` percent of each state's range."""

    sigma_pct: float
    seed: int | None = None

    def __post_init__(self):
        _check_noise(self.sigma_pct, self.seed)


@record
class SeriesSpec:
    """One series: its initial condition, span, samples and noise."""

    ic: tuple[float, ...]
    t_span: tuple[float, float]
    num_samples: int
    noise: NoiseSpec | None = None

    def __post_init__(self):
        if not self.ic:
            raise ValueError("ic must be a non-empty vector")
        _check_span(self.t_span, self.num_samples)

    @property
    def dt(self) -> float:
        return (self.t_span[1] - self.t_span[0]) / (self.num_samples - 1)


@record
class ModelSpec:
    """The model's delays and monomial degree."""

    delays: int
    degree: int

    def __post_init__(self):
        _check_positive(delays=self.delays, degree=self.degree)


def _fixed_from_json(raw, path: str) -> tuple[tuple[int, float], ...]:
    """``basin.fixed`` maps axes to values in JSON; the spec holds the
    sorted (axis, value) pairs."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must map axes to values, got {raw!r}")
    fixed = {}
    for key, value in raw.items():
        try:
            axis = int(key, 10)  # JSON keys are strings; only a string parses
        except (TypeError, ValueError):
            raise ConfigError(f"{path} axis must be int, got {key!r}") from None
        if axis in fixed:
            raise ConfigError(f"{path} names axis {axis} twice")
        fixed[axis] = _parse(float, value, f"{path} value")
    return tuple(sorted(fixed.items()))


@record
class BasinSpec:
    """The basin scan: window, resolution, steps, tolerance, fixed axes."""

    window: tuple[tuple[float, float], tuple[float, float]]
    resolution: int
    steps: int = 1000
    tol: float = 0.05
    fixed: tuple[tuple[int, float], ...] = field(default=(), metadata={"parse": _fixed_from_json})

    def __post_init__(self):
        _check_window(self.window, self.resolution)
        _check_capture(self.tol, steps=self.steps)


@record
class SystemSpec:
    """A catalog system and its parameter overrides."""

    ident: str
    params: dict[str, float] = field(default_factory=dict)


@record
class ExperimentConfig:
    """One experiment: the system, model, series, basin scan and output."""

    system: SystemSpec
    model: ModelSpec
    train: tuple[SeriesSpec, ...]
    test: tuple[SeriesSpec, ...] = ()
    basin: BasinSpec | None = None
    output_dir: str = "runs/experiment"
    global_seed: int = 0
    integrator: IntegratorSettings | None = None

    def __post_init__(self):
        if not self.train:
            raise ValueError("train must list at least one series")
        if self.global_seed < 0:
            raise ValueError(f"global_seed must be >= 0, got {self.global_seed}")


@cache
def _schema(cls) -> tuple:
    """Each field of dataclass ``cls`` with its resolved type."""
    hints = get_type_hints(cls)
    return tuple((spec, hints[spec.name]) for spec in fields(cls))


def _build(cls, raw, path: str):
    """Dataclass ``cls`` from the mapping ``raw`` at ``path`` ("" for the
    whole config)."""
    where = path or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping, got {raw!r}")
    schema = _schema(cls)
    names = {spec.name for spec, _ in schema}
    for key in raw:
        if key not in names:
            raise ConfigError(f"unknown key {key!r} in {where}")
    prefix = f"{path}." if path else ""
    values = {}
    for spec, hint in schema:
        if spec.name not in raw:
            if spec.default is MISSING and spec.default_factory is MISSING:
                raise ConfigError(f"missing required key {spec.name!r} in {where}")
            continue
        value = raw[spec.name]
        if value is None and path and NoneType in get_args(hint):
            values[spec.name] = None  # only nested optional fields take null
        elif "parse" in spec.metadata:
            values[spec.name] = spec.metadata["parse"](value, prefix + spec.name)
        else:
            values[spec.name] = _parse(hint, value, prefix + spec.name)
    try:
        return cls(**values)
    except ValueError as exc:  # the type's own value rules
        raise ConfigError(f"{prefix}{exc}") from None


def _parse(hint, value, path: str):
    """``value`` checked against type ``hint`` and converted to it."""
    if is_dataclass(hint):
        return _build(hint, value, path)
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # X | None, where the caller let no null through
        (inner,) = [arg for arg in args if arg is not NoneType]
        return _parse(inner, value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{path} must be list of {len(args)}, got {value!r}")
        # Entries are named by their field; only dataclass entries are numbered.
        return tuple(
            _parse(arg, entry, f"{path}[{i}]" if is_dataclass(arg) else path)
            for i, (arg, entry) in enumerate(zip(args, value))
        )
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be dict, got {value!r}")
        key_hint, value_hint = args
        return {
            _parse(key_hint, key, f"{path} key"): _parse(value_hint, entry, f"{path}.{key}")
            for key, entry in value.items()
        }
    if hint is str:
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{path} must be a non-empty string, got {value!r}")
        return value
    # A number: an int takes only integers, a float integers or reals,
    # neither a bool; both must lie in the float range and be finite
    # (JSON's NaN and Infinity parse as floats).
    if isinstance(value, bool) or not isinstance(value, (int, float) if hint is float else int):
        raise ConfigError(f"{path} must be {hint.__name__}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path} must be finite, got {number!r}")
    return number if hint is float else value


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Parse and validate a configuration mapping (as loaded from JSON)."""
    config = _build(ExperimentConfig, raw, "")
    system, model = config.system, config.model
    try:
        catalog = make_system(system.ident, **system.params)
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from exc
    try:
        FeatureConfig(catalog.num_states, model.delays, model.degree)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None

    for role, entries in (("train", config.train), ("test", config.test)):
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

    dts = [entry.dt for entry in config.train + config.test]
    for i, dt in enumerate(dts[1:], start=1):
        if _dt_differs(dt, dts[0]):
            raise ConfigError(
                f"all series must share one sampling interval; series {i} "
                f"implies dt={dt}, series 0 implies dt={dts[0]}"
            )

    if config.basin is not None:
        try:  # the basin module's own rules for a scan of this system
            _check_attractors(catalog)
            _free_axes(catalog.num_states, dict(config.basin.fixed))
        except ValueError as exc:
            raise ConfigError(f"basin: {exc}") from None
    return config


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
