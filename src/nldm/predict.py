"""Iterative forecasting with a learned one-step operator.

Starting from ``delays`` seed states, each step lifts the most recent
window and applies the operator matrix to produce the next state.
``_iterate`` is the one loop that steps an operator: forecasts, training
re-prediction and operator basin grids all consume it.  The update is
accumulated feature by feature in a fixed order with elementwise
operations only, so a state predicted for one start point is bitwise
identical whether that point is advanced alone or inside a batch of any
size.  Once a produced state exceeds the divergence threshold in
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


def step_batch(
    windows: np.ndarray, basis: MonomialBasis, matrix: np.ndarray
) -> np.ndarray:
    """Advance each window of recent states by one sample.

    ``windows`` has shape (n, delays, num_states) with the newest state
    last along axis 1.
    """
    n, delays, num_states = windows.shape
    stacked = windows[:, ::-1, :].reshape(n, delays * num_states)
    feats = basis.evaluate_batch(stacked)
    # A running sum in feature order; adding 0.0 turns an all -0.0 sum
    # into +0.0, as a sum started from +0.0 would be.
    return np.add.accumulate(feats[:, :, None] * matrix.T, axis=1)[:, -1] + 0.0


def _iterate(seeds, steps, basis, matrix, divergence_threshold):
    """Yield the next state of every row, ``steps`` times, from windows
    shifted in place; rows past ``divergence_threshold`` come out NaN."""
    windows = np.array(seeds, dtype=float)
    for _ in range(steps):
        with np.errstate(over="ignore", invalid="ignore"):
            nxt = step_batch(windows, basis, matrix)
            bad = ~np.isfinite(nxt).all(axis=1)
            bad |= np.abs(nxt).max(axis=1) > divergence_threshold
        nxt[bad] = np.nan
        windows[:, :-1] = windows[:, 1:]
        windows[:, -1] = nxt
        yield nxt


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
        states[:, t] = nxt
        diverged_at[np.isnan(nxt[:, 0]) & (diverged_at < 0)] = t
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
