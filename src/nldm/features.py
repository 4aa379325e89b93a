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

from .core import DimensionError, FeatureConfig, _dt_differs, _leading

__all__ = [
    "MonomialBasis",
    "SnapshotPair",
    "monomial_basis",
    "build_snapshot_pair",
]


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """Ordered monomial basis over ``num_vars`` variables.

    ``exponents`` has one row per monomial.  Evaluation is incremental:
    each monomial of degree g >= 2 is its first variable times a monomial
    of degree g - 1 (its parent).  Consecutive monomials that share a
    first variable and have consecutive, already evaluated parents form
    a run (in the graded order, one run per first variable and degree).
    A lift copies each run of degree-1 monomials from the points, then
    takes one elementwise multiply per higher run, which reads its
    variable from the lift's own degree-1 row; a variable without a
    degree-1 monomial is copied into a row past the last monomial.
    ``_lift_plan`` lays a lift out as views, so a caller that lifts many
    windows into one workspace (the forecasting kernel) builds them once
    and makes no slices or temporary arrays per lift.  Given a pair
    workspace, the plan instead forms each degree >= 2 in two calls,
    whatever its number of runs: one ``take`` of the degree's variable
    and parent rows into the workspace and one multiply of the two.  The
    forecasting kernel lifts blocks of at most ``predict._NARROW_ROWS``
    rows this way: at those widths numpy's per-call overhead costs more
    than the copies.  That form needs each degree's rows to be
    contiguous, so the rows must be sorted by total degree.  Each value
    is one multiply of the same two operands whether points are
    evaluated one at a time or in a batch, by runs or by degrees, and
    bitwise identical.
    """

    exponents: np.ndarray
    # (first row, end row, first variable) of each read, and (first row,
    # end row, lift row of the variable, first parent) of each product
    _reads: tuple
    _products: tuple
    # (first row, end row, gather) of each degree >= 2, where ``gather``
    # stacks the lift rows of each row's variable over its parent's
    _degrees: tuple
    _lift_rows: int  # the monomials, then the variables read past them

    @classmethod
    def from_exponents(cls, exponents: np.ndarray) -> "MonomialBasis":
        """Build a basis from explicit exponent rows.

        The rows must be sorted by total degree, in any order within a
        degree, and every row must either have total degree 1 or be
        divisible by an earlier row of one degree less; the canonical
        graded order satisfies both by construction.
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
        degree = exponents.sum(axis=1)
        falls = np.flatnonzero(np.diff(degree) < 0)
        if falls.size:
            j = int(falls[0]) + 1
            raise ValueError(
                f"monomial {j} of degree {degree[j]} follows one of degree "
                f"{degree[j - 1]}: rows must be sorted by total degree"
            )
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
        reads = [(lo, hi, var) for lo, hi, var, par in runs if par < 0]
        row_of = {var + i: lo + i for lo, hi, var in reads for i in range(hi - lo)}
        lift_rows = num_monomials
        for var in sorted(set(first_var[parent >= 0].tolist()) - set(row_of)):
            reads.append((lift_rows, lift_rows + 1, var))
            row_of[var] = lift_rows
            lift_rows += 1
        products = tuple((lo, hi, row_of[var], par) for lo, hi, var, par in runs if par >= 0)
        bounds = np.searchsorted(degree, np.arange(2, degree.max(initial=1) + 2)).tolist()
        degrees = []
        for lo, hi in zip(bounds, bounds[1:]):
            gather = np.array([[row_of[var] for var in first_var[lo:hi].tolist()],
                               parent[lo:hi].tolist()], dtype=np.intp)
            gather.flags.writeable = False
            degrees.append((lo, hi, gather))
        return cls(exponents, tuple(reads), products, tuple(degrees), lift_rows)

    @property
    def num_monomials(self) -> int:
        return self.exponents.shape[0]

    @property
    def num_vars(self) -> int:
        return self.exponents.shape[1]

    def _lift_plan(self, points: np.ndarray, values: np.ndarray, pair=None):
        """The views of a lift of ``points``, shape (..., num_vars, n), into
        ``values``, shape (``_lift_rows``, n): a (source, target) pair per
        read, whose source keeps the leading axes of ``points``, and a
        (gather, factors) pair per product step, in lift order.

        Without ``pair`` a product step is one run, with no gather.  With a
        flat workspace ``pair`` of at least ``2 * n`` entries per row of the
        widest degree, it is one degree: ``values.take(*gather)`` writes the
        degree's variables and parents into ``pair``, which ``factors``
        multiplies into the degree's rows.
        """
        reads = [(points[..., var:var + hi - lo, :], values[lo:hi]) for lo, hi, var in self._reads]
        if pair is None:
            products = [((), (values[var], values[parent:parent + hi - lo], values[lo:hi]))
                        for lo, hi, var, parent in self._products]
        else:
            products = []
            for lo, hi, gather in self._degrees:
                operands = _leading(pair, gather.shape + values.shape[1:])
                products.append(((gather, 0, operands, "clip"),
                                 (operands[0], operands[1], values[lo:hi])))
        return reads, products

    @property
    def _widest_degree(self) -> int:
        """The most monomials of one degree >= 2."""
        return max((hi - lo for lo, hi, _ in self._degrees), default=0)

    def _evaluate_rows(self, points: np.ndarray) -> np.ndarray:
        """Evaluate every monomial at each column of ``points``, shape
        (num_vars, n); returns shape (num_monomials, n)."""
        values = np.empty((self._lift_rows, points.shape[1]))
        reads, products = self._lift_plan(points, values)
        for source, target in reads:
            np.copyto(target, source)
        for _, factors in products:
            np.multiply(*factors)
        return values[:self.num_monomials]

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

    @property
    def num_columns(self) -> int:
        return self.targets.shape[1]


def build_snapshot_pair(trajectories, config: FeatureConfig) -> SnapshotPair:
    """Assemble target and feature matrices from one or more trajectories.

    Trajectories contribute columns in the order given; each must share
    the state dimension and sampling interval and be long enough to
    yield at least one column.  A monomial too large for a float is
    inf, which ``solve_min_frobenius`` refuses.
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
        with np.errstate(over="ignore"):  # an overflowed monomial is inf
            feature_blocks.append(
                basis.evaluate_batch(_delayed_block(trajectory.states, config.delays))
            )
    targets = np.concatenate(target_blocks, axis=0).T
    features = np.concatenate(feature_blocks, axis=0).T
    return SnapshotPair(targets, features)
