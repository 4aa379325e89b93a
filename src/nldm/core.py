"""Foundational types shared across the package.

A state is a plain 1-D float64 ndarray; a trajectory is a uniformly
sampled sequence of states together with its sampling metadata.  The
model configuration fixes how many past states are stacked and up to
which total degree the stacked vector is lifted into monomial features.
"""

from __future__ import annotations

import math
from dataclasses import _HAS_DEFAULT_FACTORY, MISSING, FrozenInstanceError, dataclass, field, fields
from functools import partial
from inspect import Parameter, Signature

import numpy as np

__all__ = [
    "CapacityError",
    "DimensionError",
    "UndefinedScoreError",
    "IntegrationError",
    "Provenance",
    "Trajectory",
    "FeatureConfig",
    "TrainingSummary",
    "LearnedOperator",
    "feature_dim",
]

# Largest feature count we are willing to materialize.  Anything beyond
# this could never be allocated as a dense matrix anyway.
FEATURE_CAP = 2**31 - 1


class CapacityError(ValueError):
    """Requested feature space is too large to materialize."""


class DimensionError(ValueError):
    """Array shapes or sampling metadata are inconsistent."""


class UndefinedScoreError(ValueError):
    """A score is undefined for the given data (e.g. constant reference)."""


class IntegrationError(RuntimeError):
    """The ODE solver failed to produce the requested samples."""


def _record_init(self, *args, **kwargs):
    """Bind the arguments to the record's fields as a dataclass's
    ``__init__`` does, fill the rest from their defaults or factories and
    run ``__post_init__``."""
    cls = type(self)
    specs = cls.__dataclass_fields__
    if len(args) > len(specs):
        raise TypeError(f"{cls.__qualname__}() takes {len(specs)} positional arguments "
                        f"but {len(args)} were given")
    values = dict(zip(specs, args))
    for name, value in kwargs.items():
        if name not in specs:
            raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
        values[name] = value
    state = self.__dict__
    for name, spec in specs.items():
        if name in values:
            state[name] = values[name]
        elif spec.default is not MISSING:
            state[name] = spec.default
        elif spec.default_factory is not MISSING:
            state[name] = spec.default_factory()
        else:
            raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
    if hasattr(cls, "__post_init__"):
        self.__post_init__()


def _record_repr(self):
    shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
    return f"{type(self).__qualname__}({shown})"


def _compared(record):
    return tuple(getattr(record, f.name) for f in fields(record) if f.compare)


def _record_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _compared(self) == _compared(other)


def _record_hash(self):
    return hash(_compared(self))


def _record_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _record_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls=None, /, *, eq=True):
    """Declare ``cls`` a frozen dataclass whose methods are the shared
    functions above, so that defining it compiles no code.

    ``dataclasses.dataclass(frozen=True, eq=eq)`` would compile each
    class's ``__init__``, ``__repr__``, ``__eq__``, ``__hash__``,
    ``__setattr__`` and ``__delattr__`` from generated source, one
    ``exec`` each, at every process start.  The class is declared with
    ``dataclass(init=False, repr=False, eq=False)``, which generates
    nothing, so ``fields``, ``replace``, ``asdict`` and ``is_dataclass``
    work as on any dataclass; the shared functions then behave as the
    generated ones: positional or keyword arguments, defaults, a fresh
    ``default_factory`` value per instance and ``__post_init__``; the
    repr; value equality and a hash over the fields for a value record
    (``eq=True``) and identity otherwise; ``FrozenInstanceError`` on
    every assignment and deletion.  ``__signature__`` lists the fields
    as the generated ``__init__`` would.  Every field must be a plain
    one that ``__init__`` takes by position or keyword.
    """
    if cls is None:
        return partial(record, eq=eq)
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    specs = fields(cls)
    if len(specs) != len(cls.__dataclass_fields__) or any(
            not f.init or f.kw_only for f in specs):
        raise TypeError(f"{cls.__qualname__}: a record takes only plain positional fields")
    cls.__init__, cls.__repr__ = _record_init, _record_repr
    cls.__setattr__, cls.__delattr__ = _record_setattr, _record_delattr
    if eq:
        cls.__eq__, cls.__hash__ = _record_eq, _record_hash
    cls.__signature__ = Signature([
        Parameter(f.name, Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type,
                  default=(f.default if f.default is not MISSING else Parameter.empty
                           if f.default_factory is MISSING else _HAS_DEFAULT_FACTORY))
        for f in specs], return_annotation=None)
    return cls


@record
class Provenance:
    """Where a trajectory's values came from.

    ``kind`` is ``"clean"`` for integrator output and ``"noisy"`` for a
    perturbed copy, in which case ``sigma_pct`` (noise scale as a percent
    of each channel's clean range) and ``seed`` are recorded.
    """

    kind: str = "clean"
    sigma_pct: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("clean", "noisy"):
            raise ValueError(f"unknown provenance kind {self.kind!r}")
        if self.kind == "noisy" and self.sigma_pct is None:
            raise ValueError("noisy provenance requires sigma_pct")

    @classmethod
    def clean(cls) -> "Provenance":
        return cls("clean")

    @classmethod
    def noisy(cls, sigma_pct: float, seed: int | None) -> "Provenance":
        return cls("noisy", sigma_pct, seed)


@record(eq=False)
class Trajectory:
    """Uniformly sampled states, one row per sample.

    Parameters
    ----------
    states : ndarray, shape (num_samples, num_states)
        Sampled states, float64.  Stored as a read-only copy.
    dt : float
        Sampling interval, strictly positive.
    t0 : float
        Time of the first row.
    provenance : Provenance
        Clean integrator output or seeded noisy copy.

    Notes
    -----
    At least two samples are required.  Entries are ordinarily finite;
    predictions that blew up carry a trailing block of NaNs, which this
    container does not reject.
    """

    states: np.ndarray
    dt: float
    t0: float = 0.0
    provenance: Provenance = field(default_factory=Provenance.clean)

    def __post_init__(self):
        states = np.array(self.states, dtype=float)
        if states.ndim != 2:
            raise DimensionError(
                f"states must be 2-D (num_samples, num_states), got ndim={states.ndim}"
            )
        if states.shape[0] < 2:
            raise DimensionError(
                f"a trajectory needs at least 2 samples, got {states.shape[0]}"
            )
        if states.shape[1] < 1:
            raise DimensionError("a trajectory needs at least one state variable")
        if not self.dt > 0:
            raise DimensionError(f"dt must be positive, got {self.dt}")
        states.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "t0", float(self.t0))

    @property
    def num_samples(self) -> int:
        return self.states.shape[0]

    @property
    def num_states(self) -> int:
        return self.states.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.num_samples)


def _dt_differs(dt: float, reference: float) -> bool:
    """Whether two sampling intervals differ beyond round-off."""
    return abs(dt - reference) > 1e-12 * max(abs(reference), 1.0)


def _ordered_sum(terms, out=None):
    """``terms[0] + terms[1] + ...`` over the leading axis, added in index
    order from +0.0 as a loop of ``+=`` would, into ``out`` if given.

    numpy reduces a leading axis plane by plane, in order, except over a
    one-element plane, where it may take a pairwise sum; such planes are
    summed two wide.  The integrator's error norm and dense-output
    evaluation go through here, as do the weighted sums where einsum
    adds otherwise (``_weighted_sum``).
    """
    if terms.size != len(terms):  # planes of two or more elements
        return np.add.reduce(terms, axis=0, initial=0.0, out=out)
    pair = np.repeat(terms.reshape(-1, 1), 2, axis=1)
    if out is None:
        out = np.empty_like(terms[0])
    out[...] = np.add.reduce(pair, axis=0, initial=0.0)[0]
    return out


# Whether einsum rounds each product and adds in feature order.  Row 0:
# (1 + 2**-30) * (1 - 2**-30) rounds to 1 and the sum to 0.0, where a
# fused multiply-add keeps -2**-60.  Row 1: 1 + 0 + 2**53 - 2**53 is 0.0
# in order (2**53 + 1 rounds to 2**53), and 1.0 reversed or pairwise.
_EINSUM_ADDS_IN_ORDER = np.einsum(
    "sf,fr->sr", [[1.0, 1.0 + 2.0**-30, 0.0, 0.0], [-1.0, 0.0, 1.0, 1.0]],
    [[-1.0] * 2, [1.0 - 2.0**-30] * 2, [2.0**53] * 2, [-2.0**53] * 2]).tobytes() == bytes(32)


def _weighted_sum(weights, lift):
    """A function of ``out`` that writes there, or into a new array,
    ``weights`` (outputs, features) times ``lift`` (features, r), each
    product rounded and added in feature order from +0.0, as a loop of
    ``+=`` would.  At numpy's default ``optimize=False``, einsum over two
    or more columns loops over the features outside an inner loop along
    the columns, so it adds in that order without writing the (features,
    outputs, r) products.  One column, whose inner loop runs along the
    features, and a numpy whose einsum adds otherwise
    (``_EINSUM_ADDS_IN_ORDER``) take the products and their
    ``_ordered_sum`` instead.  The forecasting kernel's steps and the
    integrator's stage sums all go through here."""
    if lift.shape[1] > 1 and _EINSUM_ADDS_IN_ORDER:
        return partial(np.einsum, "sf,fr->sr", weights, lift)
    terms = np.empty((len(lift), len(weights), lift.shape[1]))
    products = partial(np.multiply, weights.T[:, :, None], lift[:, None, :], terms)
    return lambda out=None: _ordered_sum(products(), out=out)


def _leading(space, shape):
    """View the leading entries of the flat workspace ``space`` as
    ``shape``; workspaces are sized for the largest block of a run."""
    return space[:math.prod(shape)].reshape(shape)


def _check_positive(**values) -> None:
    for name, value in values.items():
        if not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


def feature_dim(num_states: int, delays: int, degree: int) -> int:
    """Number of monomial features of total degree 1..degree in
    ``delays * num_states`` variables (the constant term is excluded).

    Raises
    ------
    CapacityError
        If the count exceeds what could ever be materialized.
    """
    _check_positive(num_states=num_states, delays=delays, degree=degree)
    # C(n, degree) - 1, built as C(n, i) for i = 1..min(degree, n - degree),
    # over which it grows, so a shape far past the cap stops after a few
    # steps instead of computing a huge binomial.
    n = int(delays) * int(num_states) + int(degree)
    count = 1
    for i in range(1, min(degree, n - degree) + 1):
        count = count * (n - i + 1) // i
        if count - 1 > FEATURE_CAP:
            raise CapacityError(
                f"feature space of size at least {count - 1} exceeds capacity {FEATURE_CAP}"
            )
    return count - 1


@record
class FeatureConfig:
    """Shape of the lifted feature space.

    ``delays`` past states of dimension ``num_states`` are stacked and
    every monomial of total degree 1..``degree`` in the stacked entries
    becomes one feature; ``num_features`` is the resulting count.  With
    ``delays == degree == 1`` the lift is the identity.
    """

    num_states: int
    delays: int
    degree: int

    def __post_init__(self):
        # Validates ranges and the implied feature count in one shot.
        feature_dim(self.num_states, self.delays, self.degree)

    @property
    def num_features(self) -> int:
        return feature_dim(self.num_states, self.delays, self.degree)

    @property
    def stacked_dim(self) -> int:
        return self.delays * self.num_states


@record
class TrainingSummary:
    """Fit diagnostics attached to a learned operator.

    ``origin_multiplier`` is the spectral radius of the learned map's
    Jacobian at the origin: below 1 the origin attracts, near 1 it is
    close to neutral.
    """

    num_trajectories: int
    total_columns: int
    residual_frobenius: float
    per_trajectory_rrmse: tuple[float, ...]
    effective_rank: int
    underdetermined: bool
    origin_multiplier: float


@record(eq=False)
class LearnedOperator:
    """Linear map from lifted delayed features to the next state.

    ``matrix`` has shape (num_states, num_features) and advances the
    system one sample: the next state is ``matrix @ lift(stack)``.
    ``training_summary`` is None for operators loaded from disk.
    """

    matrix: np.ndarray
    config: FeatureConfig
    dt: float
    training_summary: TrainingSummary | None = None

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        expected = (self.config.num_states, self.config.num_features)
        if matrix.shape != expected:
            raise DimensionError(
                f"operator matrix shape {matrix.shape} does not match "
                f"configured {expected}"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValueError("operator matrix must be finite")
        if not self.dt > 0:
            raise DimensionError(f"dt must be positive, got {self.dt}")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "dt", float(self.dt))
