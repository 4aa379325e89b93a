"""Minimum-norm least-squares fit of the one-step operator.

Solves min ||solution @ features - targets||_F over all solutions and,
among minimizers, returns the one of minimum Frobenius norm.  The
computation goes through numpy's SVD-based ``lstsq`` driver on the
transposed problem; singular values below eps * max(dims) * s_max are
truncated, which is what makes rank-deficient problems well defined.
"""

from __future__ import annotations

import numpy as np

from .core import DimensionError, record

__all__ = ["LstsqReport", "solve_min_frobenius"]


@record(eq=False)
class LstsqReport:
    """Solution plus diagnostics of one least-squares solve.

    ``residual_frobenius`` is recomputed from the returned solution, not
    taken from the solver, so it stays meaningful in the rank-deficient
    and underdetermined regimes.  ``truncated_singular_values`` counts
    how many singular values fell below the cutoff.
    """

    solution: np.ndarray
    residual_frobenius: float
    effective_rank: int
    truncated_singular_values: int


def solve_min_frobenius(features: np.ndarray, targets: np.ndarray) -> LstsqReport:
    """Fit ``solution`` with ``solution @ features ~= targets``.

    Parameters
    ----------
    features : ndarray, shape (num_features, num_columns)
    targets : ndarray, shape (num_states, num_columns)

    Returns
    -------
    LstsqReport
        ``solution`` has shape (num_states, num_features).

    Raises
    ------
    DimensionError
        On mismatched column counts or empty matrices.
    ValueError
        If either matrix contains non-finite entries.
    """
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2 or targets.ndim != 2:
        raise DimensionError("features and targets must be 2-D matrices")
    if features.shape[1] != targets.shape[1]:
        raise DimensionError(
            f"features have {features.shape[1]} columns, targets "
            f"{targets.shape[1]}"
        )
    if features.shape[0] < 1 or targets.shape[0] < 1 or features.shape[1] < 1:
        raise DimensionError("features and targets must be non-empty")
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite entries")
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets contain non-finite entries")

    # lstsq solves min ||a x - b|| columnwise, so transpose both sides.
    # rcond=None truncates at eps * max(dims) * s_max.
    solution_t, _, rank, singular_values = np.linalg.lstsq(
        features.T, targets.T, rcond=None
    )
    solution = solution_t.T
    with np.errstate(over="ignore"):  # inf once the squares of the residual overflow
        residual = float(np.linalg.norm(solution @ features - targets, "fro"))
    return LstsqReport(
        solution=solution,
        residual_frobenius=residual,
        effective_rank=int(rank),
        truncated_singular_values=int(singular_values.size - rank),
    )
