"""Delayed stacking and monomial lifting of trajectory samples.

The stacked vector at sample k concatenates the previous ``delays``
states, most recent first.  The lift evaluates every monomial of total
degree 1..``degree`` in the stacked entries, ordered by ascending total
degree and, within a degree, by the variable combinations that
``itertools.combinations_with_replacement`` yields over the stacked
entry order.  Snapshot pairs line these lifted vectors up against the
states they should predict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DimensionError, FeatureConfig, Trajectory, _dt_differs, feature_dim

__all__ = [
    "MonomialBasis",
    "SnapshotPair",
    "monomial_basis",
    "delayed_state",
    "lift",
    "build_snapshot_pair",
]


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """Ordered monomial basis over ``num_vars`` variables.

    ``exponents`` has one row per monomial.  Evaluation is incremental:
    each monomial of degree g >= 2 is its first variable times a monomial
    of degree g - 1 (its parent).  Consecutive monomials that share a
    first variable and have consecutive, already evaluated parents form
    a run, evaluated by one elementwise multiply of slices (in the graded
    order, one run per first variable and degree), so a lift makes no
    temporary arrays.  Each value is therefore one multiply of the same
    two operands whether points are evaluated one at a time or in a
    batch, and bitwise identical.
    """

    exponents: np.ndarray
    # (first column, end column, first variable, first parent or -1 for
    # degree 1, whose variables are consecutive instead) per run
    _runs: tuple

    @classmethod
    def from_exponents(cls, exponents: np.ndarray) -> "MonomialBasis":
        """Build a basis from explicit exponent rows (any order).

        Every row must either have total degree 1 or be divisible by an
        earlier row of one degree less; the canonical graded order
        satisfies this by construction.
        """
        exponents = np.array(exponents, dtype=np.int64)
        if exponents.ndim != 2:
            raise ValueError("exponents must be a 2-D array")
        exponents.flags.writeable = False
        num_monomials, num_vars = exponents.shape
        index_of = {}
        first_var = np.zeros(num_monomials, dtype=np.int64)
        parent = np.full(num_monomials, -1, dtype=np.int64)
        for j, row in enumerate(exponents):
            key = tuple(int(e) for e in row)
            if min(key) < 0 or sum(key) < 1:
                raise ValueError(f"monomial {j} has invalid exponents {key}")
            if key in index_of:
                raise ValueError(f"duplicate monomial at row {j}: {key}")
            index_of[key] = j
            var = next(i for i, e in enumerate(key) if e > 0)
            first_var[j] = var
            if sum(key) > 1:
                reduced = list(key)
                reduced[var] -= 1
                try:
                    parent[j] = index_of[tuple(reduced)]
                except KeyError:
                    raise ValueError(
                        f"monomial {key} appears before its divisor {tuple(reduced)}"
                    ) from None
        runs = []
        for j, (var, par) in enumerate(zip(first_var.tolist(), parent.tolist())):
            if runs:
                lo, _, run_var, run_par = runs[-1]
                length = j - lo
                if (run_par < 0 and par < 0 and var == run_var + length) or (
                    run_par >= 0 and var == run_var and par == run_par + length and par < lo
                ):
                    runs[-1] = (lo, j + 1, run_var, run_par)
                    continue
            runs.append((j, j + 1, var, par))
        return cls(exponents, tuple(runs))

    @property
    def num_monomials(self) -> int:
        return self.exponents.shape[0]

    @property
    def num_vars(self) -> int:
        return self.exponents.shape[1]

    def _evaluate_rows(self, points: np.ndarray, values: np.ndarray | None = None) -> np.ndarray:
        """Evaluate every monomial at each column of ``points``, shape
        (num_vars, n), into ``values`` (a new array if None); returns
        ``values``, shape (num_monomials, n)."""
        if values is None:
            values = np.empty((self.num_monomials, points.shape[1]))
        for lo, hi, var, parent in self._runs:
            if parent < 0:
                values[lo:hi] = points[var:var + hi - lo]
            else:
                np.multiply(points[var], values[parent:parent + hi - lo], out=values[lo:hi])
        return values

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate every monomial at each row of ``points``.

        Parameters
        ----------
        points : ndarray, shape (num_points, num_vars)

        Returns
        -------
        ndarray, shape (num_points, num_monomials)
            A transposed view of the state-major values.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.num_vars:
            raise DimensionError(
                f"expected points of shape (n, {self.num_vars}), got {points.shape}"
            )
        return self._evaluate_rows(points.T).T

    def evaluate(self, point: np.ndarray) -> np.ndarray:
        return self.evaluate_batch(np.asarray(point, dtype=float)[None, :])[0]


def _graded_exponents(num_vars: int, degree: int) -> np.ndarray:
    rows = []
    for total in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(num_vars), total):
            row = [0] * num_vars
            for var in combo:
                row[var] += 1
            rows.append(row)
    return np.array(rows, dtype=np.int64)


@lru_cache(maxsize=None)
def _cached_basis(num_vars: int, degree: int) -> MonomialBasis:
    return MonomialBasis.from_exponents(_graded_exponents(num_vars, degree))


def monomial_basis(config: FeatureConfig) -> MonomialBasis:
    """Canonical basis for a feature configuration (cached)."""
    basis = _cached_basis(config.stacked_dim, config.degree)
    assert basis.num_monomials == config.num_features
    return basis


def delayed_state(trajectory: Trajectory, k: int, delays: int) -> np.ndarray:
    """Concatenate states k-1, k-2, ..., k-delays into one vector.

    Raises
    ------
    IndexError
        If fewer than ``delays`` states precede sample k, or k is out of
        range.
    """
    if delays < 1:
        raise ValueError(f"delays must be >= 1, got {delays}")
    if k < delays:
        raise IndexError(
            f"sample {k} has only {k} predecessors, need {delays}"
        )
    if k > trajectory.num_samples - 1:
        raise IndexError(
            f"sample {k} out of range for {trajectory.num_samples} samples"
        )
    return trajectory.states[k - delays:k][::-1].reshape(-1)


def lift(stacked: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """Lift a stacked delayed vector into the monomial feature vector."""
    stacked = np.asarray(stacked, dtype=float)
    if stacked.shape != (config.stacked_dim,):
        raise DimensionError(
            f"expected stacked vector of length {config.stacked_dim}, "
            f"got shape {stacked.shape}"
        )
    return monomial_basis(config).evaluate(stacked)


def _delayed_block(states: np.ndarray, delays: int) -> np.ndarray:
    """Rows k = delays..K-1 of the delayed stack, one row per sample."""
    num_samples = states.shape[0]
    blocks = [states[delays - i: num_samples - i] for i in range(1, delays + 1)]
    return np.concatenate(blocks, axis=1)


@dataclass(frozen=True, eq=False)
class SnapshotPair:
    """Aligned training matrices: one column per usable sample.

    ``targets`` holds the states to predict (num_states x M) and
    ``features`` the lifted delayed vectors that precede them
    (num_features x M), where M sums K_q - delays over the trajectories.
    """

    targets: np.ndarray
    features: np.ndarray
    columns_per_trajectory: tuple[int, ...]

    @property
    def num_columns(self) -> int:
        return self.targets.shape[1]


def build_snapshot_pair(trajectories, config: FeatureConfig) -> SnapshotPair:
    """Assemble target and feature matrices from one or more trajectories.

    Trajectories contribute columns in the order given; each must share
    the state dimension and sampling interval and be long enough to
    yield at least one column.
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise ValueError("need at least one trajectory")
    first = trajectories[0]
    if first.num_states != config.num_states:
        raise DimensionError(
            f"trajectory has {first.num_states} states, config expects "
            f"{config.num_states}"
        )
    basis = monomial_basis(config)
    target_blocks = []
    feature_blocks = []
    counts = []
    for q, trajectory in enumerate(trajectories):
        if trajectory.num_states != first.num_states:
            raise DimensionError(
                f"trajectory {q} has {trajectory.num_states} states, "
                f"expected {first.num_states}"
            )
        if _dt_differs(trajectory.dt, first.dt):
            raise DimensionError(
                f"trajectory {q} has dt={trajectory.dt}, expected {first.dt}"
            )
        if trajectory.num_samples < config.delays + 1:
            raise DimensionError(
                f"trajectory {q} has {trajectory.num_samples} samples, "
                f"need at least {config.delays + 1} for {config.delays} delays"
            )
        target_blocks.append(trajectory.states[config.delays:])
        feature_blocks.append(
            basis.evaluate_batch(_delayed_block(trajectory.states, config.delays))
        )
        counts.append(trajectory.num_samples - config.delays)
    targets = np.concatenate(target_blocks, axis=0).T
    features = np.concatenate(feature_blocks, axis=0).T
    return SnapshotPair(targets, features, tuple(counts))
