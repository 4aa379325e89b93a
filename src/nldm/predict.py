"""Iterative forecasting with a learned one-step operator.

Starting from ``delays`` seed states, each step lifts the most recent
window and applies the operator matrix to produce the next state.
``_iterate`` is the one loop that steps an operator: forecasts, training
re-prediction and operator basin grids all consume it.  It holds its
arrays state-major, one column per row being forecast: the last
``delays`` states sit in a ring buffer of shape (delays * num_states,
rows) whose oldest slot each step overwrites, so windows are never
shifted, and the lift and the sum work on whole rows of columns.  The
update is summed feature by feature in a fixed order from +0.0 with
elementwise operations only, so a state predicted for one start point is
bitwise identical whether that point is advanced alone or inside a batch
of any size.  A caller may send the kernel a mask of the rows to keep;
the basin scanner sends it the cells still open, so settled cells leave
the kernel.  Once a produced state exceeds the divergence threshold in
max-norm (or is non-finite), the rest of the trajectory is NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionError, LearnedOperator, Trajectory
from .features import MonomialBasis, monomial_basis

__all__ = ["Prediction", "predict", "step_batch", "iterate_batch"]

DIVERGENCE_THRESHOLD = 1e6


@dataclass(frozen=True, eq=False)
class Prediction:
    """Seeded forecast: ``trajectory`` holds the seeds followed by the
    predicted states.  ``diverged_at`` is the index of the first NaN
    sample, or None; everything from that index on is NaN.
    """

    trajectory: Trajectory
    diverged_at: int | None
    steps_requested: int


def _step(stacked: np.ndarray, basis: MonomialBasis, weights: np.ndarray) -> np.ndarray:
    """Next state for each column of ``stacked``, the delayed vectors
    state-major, shape (stacked_dim, n); ``weights`` is the operator
    matrix transposed to shape (num_features, num_states, 1).  Returns
    shape (num_states, n)."""
    terms = weights * basis._evaluate_rows(stacked)[:, None, :]
    nxt = np.zeros(terms.shape[1:])
    for term in terms:  # feature order from +0.0, never a pairwise sum
        nxt += term
    return nxt


def step_batch(
    windows: np.ndarray, basis: MonomialBasis, matrix: np.ndarray
) -> np.ndarray:
    """Advance each window of recent states by one sample.

    ``windows`` has shape (n, delays, num_states) with the newest state
    last along axis 1.  The forecasting kernel takes the same step.
    """
    n, delays, num_states = windows.shape
    stacked = windows.transpose(1, 2, 0)[::-1].reshape(delays * num_states, n)
    return _step(stacked, basis, matrix.T[:, :, None]).T


def _iterate(seeds, steps, basis, matrix, divergence_threshold):
    """Yield the next state of every kept row, shape (num_states, rows),
    ``steps`` times; rows past ``divergence_threshold`` come out NaN.

    The generator accepts a boolean mask over the rows it last yielded
    by ``send``, and steps only the rows the mask keeps from then on.
    """
    seeds = np.asarray(seeds, dtype=float)
    n, delays, num_states = seeds.shape
    # Ring of the last ``delays`` states: before step k, lag i (0 is the
    # newest) is slot (i - k) mod delays, rows slot*S..slot*S+S-1; the
    # step overwrites the oldest slot.  ``lags[k % delays]`` gathers the
    # slots in lag order.
    ring = np.array(seeds.transpose(1, 2, 0)[::-1].reshape(delays * num_states, n))
    slots = (np.arange(delays) - np.arange(delays)[:, None]) % delays
    lags = (slots[:, :, None] * num_states + np.arange(num_states)).reshape(delays, -1)
    weights = np.ascontiguousarray(matrix.T)[:, :, None]
    for k in range(steps):
        phase = k % delays
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = _step(ring[lags[phase]], basis, weights)
            # A NaN maximum compares False, so non-finite rows are bad too.
            bad = ~(np.abs(nxt).max(axis=0) <= divergence_threshold)
        nxt[:, bad] = np.nan
        oldest = (delays - 1 - phase) * num_states
        ring[oldest:oldest + num_states] = nxt
        keep = yield nxt
        if keep is not None:
            ring = ring[:, keep]


def iterate_batch(
    seeds: np.ndarray,
    steps: int,
    basis: MonomialBasis,
    matrix: np.ndarray,
    divergence_threshold: float = DIVERGENCE_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray]:
    """Iterate the operator from a batch of seed windows.

    Parameters
    ----------
    seeds : ndarray, shape (n, delays, num_states)
    steps : int
        Number of states to append per start point.

    Returns
    -------
    states : ndarray, shape (n, delays + steps, num_states)
    diverged_at : ndarray, shape (n,)
        Index of the first NaN sample per start point, -1 if none.
    """
    seeds = np.asarray(seeds, dtype=float)
    n, delays, num_states = seeds.shape
    states = np.empty((n, delays + steps, num_states))
    states[:, :delays] = seeds
    diverged_at = np.full(n, -1, dtype=np.int64)
    kernel = _iterate(seeds, steps, basis, matrix, divergence_threshold)
    for t, nxt in enumerate(kernel, start=delays):
        states[:, t] = nxt.T
        diverged_at[np.isnan(nxt[0]) & (diverged_at < 0)] = t
    return states, diverged_at


def predict(
    operator: LearnedOperator,
    seeds: np.ndarray,
    steps: int,
    t0: float = 0.0,
    divergence_threshold: float = DIVERGENCE_THRESHOLD,
) -> Prediction:
    """Forecast ``steps`` states from exactly ``delays`` seed states.

    ``seeds`` must have shape (delays, num_states) and be finite, and
    seeds plus steps must make at least two samples; the returned
    trajectory has the seeds as its first rows and inherits the
    operator's sampling interval.
    """
    config = operator.config
    seeds = np.asarray(seeds, dtype=float)
    if seeds.shape != (config.delays, config.num_states):
        raise DimensionError(
            f"seeds must have shape ({config.delays}, {config.num_states}), "
            f"got {seeds.shape}"
        )
    if not np.all(np.isfinite(seeds)):
        raise ValueError("seeds contain non-finite entries")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    states, diverged = iterate_batch(
        seeds[None], steps, monomial_basis(config), operator.matrix, divergence_threshold
    )
    trajectory = Trajectory(states[0], dt=operator.dt, t0=t0)
    return Prediction(
        trajectory=trajectory,
        diverged_at=None if diverged[0] < 0 else int(diverged[0]),
        steps_requested=steps,
    )
