"""Delayed stacking and monomial lifting of trajectory samples.

The stacked vector at sample k concatenates the previous ``delays``
states, most recent first.  The lift evaluates every monomial of total
degree 1..``degree`` in the stacked entries, ordered by ascending total
degree and, within a degree, by the variable combinations that
``itertools.combinations_with_replacement`` yields over the stacked
entry order, which ``MonomialBasis`` builds in closed form.  Snapshot
pairs line these lifted vectors up against the states they should
predict.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import DimensionError, FeatureConfig, _dt_differs, _leading, feature_dim, record

__all__ = [
    "MonomialBasis",
    "SnapshotPair",
    "monomial_basis",
    "build_snapshot_pair",
]


@record(eq=False)
class MonomialBasis:
    """Every monomial of total degree 1..D over ``num_vars`` variables,
    sorted by total degree.

    ``exponents`` has one row per monomial.  Evaluation is incremental:
    each monomial of degree g >= 2 is its first variable times a monomial
    of degree g - 1 (its parent).  In the canonical order the degree-1
    rows are the variables in order, and the degree-g monomials whose
    first variable is v are v times the tail of degree g - 1 that starts
    at v's first monomial: one run per variable and degree, each a range
    of consecutive parents.  A lift copies the points into the degree-1
    rows, then takes one elementwise multiply per run.  ``_lift_plan``
    lays a lift out as views, so a caller that lifts many windows into
    one workspace (the forecasting kernel) builds them once and makes no
    slices or temporary arrays per lift.  Given a pair workspace, the
    plan instead forms each degree >= 2 in two calls, whatever its number
    of runs: one ``take`` of the degree's variable and parent rows into
    the workspace and one multiply of the two.  The forecasting kernel
    lifts blocks of at most ``predict._NARROW_ROWS`` rows this way: at
    those widths numpy's per-call overhead costs more than the copies.
    Each value is one multiply of the same two operands whether points
    are evaluated one at a time or in a batch, by runs or by degrees, and
    bitwise identical.  A basis in another order within degrees
    (``from_exponents``) keeps its own ``exponents`` and the canonical
    row of each row: it evaluates as the canonical basis with its rows
    reordered, and forecasts as it with the operator's columns reordered.
    """

    exponents: np.ndarray
    # (first row, end row, variable, first parent) of each run of the
    # canonical order, and (first row, end row, gather) of each degree
    # >= 2, where ``gather`` stacks each row's variable over its parent
    _runs: tuple
    _degrees: tuple
    _order: np.ndarray | None  # each row's canonical row; None if canonical

    @classmethod
    def from_exponents(cls, exponents: np.ndarray) -> "MonomialBasis":
        """Build a basis from explicit exponent rows.

        The rows must be every monomial of total degree 1..D in their
        columns' variables, each once, sorted by total degree, in any
        order within a degree.  Rows in the canonical order return the
        canonical basis.
        """
        exponents = np.array(exponents, dtype=np.int64)
        if exponents.ndim != 2:
            raise ValueError("exponents must be a 2-D array")
        exponents.flags.writeable = False
        num_monomials, num_vars = exponents.shape
        degree = exponents.sum(axis=1)
        invalid = np.flatnonzero((exponents < 0).any(axis=1) | (degree < 1))
        if invalid.size:
            j = int(invalid[0])
            raise ValueError(f"monomial {j} has invalid exponents {tuple(exponents[j].tolist())}")
        falls = np.flatnonzero(np.diff(degree) < 0)
        if falls.size:
            j = int(falls[0]) + 1
            raise ValueError(
                f"monomial {j} of degree {degree[j]} follows one of degree "
                f"{degree[j - 1]}: rows must be sorted by total degree"
            )
        top = int(degree.max(initial=0))
        # Counted first: feature_dim refuses a count past the cap at once.
        if num_monomials == 0 or num_monomials != feature_dim(num_vars, 1, top):
            raise ValueError(
                f"{num_monomials} rows are not the {num_vars}-variable monomials of "
                f"degree 1..{top}: every one of them must appear once"
            )
        canonical = _cached_basis(num_vars, top)
        if np.array_equal(exponents, canonical.exponents):
            return canonical
        row_of = {row: j for j, row in enumerate(map(tuple, canonical.exponents.tolist()))}
        order = []
        for j, row in enumerate(map(tuple, exponents.tolist())):
            if row not in row_of:
                raise ValueError(f"duplicate monomial at row {j}: {row}")
            order.append(row_of.pop(row))
        order = np.array(order, dtype=np.intp)
        order.flags.writeable = False
        return cls(exponents, canonical._runs, canonical._degrees, order)

    @property
    def num_monomials(self) -> int:
        return self.exponents.shape[0]

    @property
    def num_vars(self) -> int:
        return self.exponents.shape[1]

    def _lift_plan(self, values: np.ndarray, pair=None):
        """The product steps of a canonical lift in ``values``, shape
        (num_monomials, n), whose degree-1 rows hold the points: a
        (gather, factors) pair per step, in lift order.

        Without ``pair`` a step is one run, with no gather.  With a flat
        workspace ``pair`` of at least ``2 * n`` entries per row of the
        widest degree, it is one degree: ``values.take(*gather)`` writes
        the degree's variables and parents into ``pair``, which
        ``factors`` multiplies into the degree's rows.
        """
        if pair is None:
            return [((), (values[var], values[parent:parent + hi - lo], values[lo:hi]))
                    for lo, hi, var, parent in self._runs]
        products = []
        for lo, hi, gather in self._degrees:
            operands = _leading(pair, gather.shape + values.shape[1:])
            products.append(((gather, 0, operands, "clip"),
                             (operands[0], operands[1], values[lo:hi])))
        return products

    @property
    def _widest_degree(self) -> int:
        """The most monomials of one degree >= 2."""
        return max((hi - lo for lo, hi, _ in self._degrees), default=0)

    def _evaluate_rows(self, points: np.ndarray) -> np.ndarray:
        """Evaluate every monomial at each column of ``points``, shape
        (num_vars, n); returns shape (num_monomials, n)."""
        values = np.empty((self.num_monomials, points.shape[1]))
        values[:self.num_vars] = points
        for _, factors in self._lift_plan(values):
            np.multiply(*factors)
        return values if self._order is None else values[self._order]

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


@lru_cache(maxsize=None)
def _cached_basis(num_vars: int, degree: int) -> MonomialBasis:
    """The canonical basis, exponents and runs from one loop (see
    ``MonomialBasis``)."""
    exponents = np.zeros((feature_dim(num_vars, 1, degree), num_vars), dtype=np.int64)
    exponents[:num_vars] = np.eye(num_vars, dtype=np.int64)
    firsts = range(num_vars)  # each variable's first row in the last degree
    runs, degrees = [], []
    end = num_vars  # of the last degree
    for _ in range(2, degree + 1):
        row, heads = end, []
        for var, parent in enumerate(firsts):
            count = end - parent
            exponents[row:row + count] = exponents[parent:end]
            exponents[row:row + count, var] += 1
            runs.append((row, row + count, var, parent))
            heads.append(row)
            row += count
        gather = np.concatenate([(np.full(end - parent, var, dtype=np.intp),
                                  np.arange(parent, end, dtype=np.intp))
                                 for var, parent in enumerate(firsts)], axis=1)
        gather.flags.writeable = False
        degrees.append((end, row, gather))
        firsts, end = heads, row
    exponents.flags.writeable = False
    return MonomialBasis(exponents, tuple(runs), tuple(degrees), None)


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


@record(eq=False)
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
