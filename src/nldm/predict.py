"""Iterative forecasting with a learned one-step operator.

Starting from ``delays`` seed states, each step lifts the most recent
window and applies the operator matrix to produce the next state.
``_iterate`` is the one loop that steps an operator, for forecasts,
training re-prediction and operator basin grids.  It is a block source
like ``odes._dormand_prince_blocks``: it yields each row's seeds and then
its forecast as (rows, T, num_states) blocks, and after each block takes
a mask of the rows to step further.  It holds its arrays state-major,
one column per row, with the last ``delays`` states in a ring buffer,
and works in buffers allocated once per run.  The lift takes one
multiply per run of monomials (see ``MonomialBasis``); the update takes
the same numpy calls whatever the feature count.  It is one
``np.add.reduce`` over the outer (feature) axis of the (features,
states, columns) products, starting from +0.0, and numpy adds such
planes elementwise in feature order, as a loop of ``+=`` would.  The
reduction is at least two columns wide (a single row is broadcast into
both), since over one state and one column numpy would take a pairwise
sum instead.  So a row's samples are bitwise identical alone or in a
batch of any size, in blocks of any length.  Once a produced state
exceeds the divergence threshold in max-norm (or is non-finite), the
rest of the trajectory is NaN.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionError, LearnedOperator, Trajectory
from .features import MonomialBasis, monomial_basis

__all__ = ["Prediction", "predict", "iterate_batch"]

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


def _iterate(seeds, steps, basis, matrix, divergence_threshold, block):
    """Yield each kept row's seeds and then ``steps`` forecast states,
    ``block`` samples at a time; a boolean mask sent after a block keeps
    the rows of that block to step further."""
    n, delays, num_states = seeds.shape
    span = delays * num_states
    # Ring of the last ``delays`` states, written twice, shape (2 * delays
    # * S, rows): sample t lives in slot delays - 1 - t % delays and in
    # that slot plus delays, so the lags of a step, newest first, are the
    # ``delays`` slots from the newest sample's on, one contiguous slice.
    ring = np.tile(seeds.transpose(1, 2, 0)[::-1].reshape(span, n), (2, 1))
    weights = np.ascontiguousarray(matrix.T)[:, :, None]
    num_features = weights.shape[0]
    # Workspaces sized for the first block; later blocks, which hold
    # fewer rows, take contiguous views of their leading entries.
    lift_space = np.empty(num_features * n)
    terms_space = np.empty(num_features * num_states * max(n, 2))
    nxt_space = np.empty(num_states * max(n, 2))
    total = delays + steps
    for first in range(0, total, block):
        stop = min(first + block, total)
        rows = ring.shape[1]
        halves = ring.reshape(2, span, rows)
        # The sum is at least two columns wide, which a single row's lift
        # broadcasts into: with one state, a one-column reduction would
        # take numpy's pairwise sum, not the feature order.
        width = 2 if rows == 1 else rows
        lift = lift_space[:num_features * rows].reshape(num_features, rows)
        terms = terms_space[:num_features * num_states * width].reshape(
            num_features, num_states, width
        )
        nxt = nxt_space[:num_states * width].reshape(num_states, width)
        # One state-major column per sample: a (rows, T, S) buffer fills slower.
        out = np.empty((num_states, rows, stop - first))
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(first, stop):
                slot = (delays - 1 - t % delays) * num_states
                if t >= delays:
                    newest = (slot + num_states) % span
                    basis._evaluate_rows(ring[newest:newest + span], lift)
                    np.multiply(weights, lift[:, None, :], out=terms)
                    # Adds the feature planes in order from +0.0.
                    np.add.reduce(terms, axis=0, initial=0.0, out=nxt)
                    # A NaN maximum compares False, so non-finite rows are
                    # bad too; terms is free once summed.
                    bad = ~(np.abs(nxt, out=terms[0]).max(axis=0) <= divergence_threshold)
                    if bad.any():
                        nxt[:, bad] = np.nan
                    halves[:, slot:slot + num_states] = nxt[:, :rows]
                out[:, :, t - first] = ring[slot:slot + num_states]
        keep = yield out.transpose(1, 2, 0)
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
        Number of states to append per start point; ``steps=1`` takes
        one step from each window.

    Returns
    -------
    states : ndarray, shape (n, delays + steps, num_states)
    diverged_at : ndarray, shape (n,)
        Index of the first NaN sample per start point, -1 if none.
    """
    seeds = np.asarray(seeds, dtype=float)
    matrix = np.asarray(matrix, dtype=float)
    if seeds.ndim != 3 or seeds.shape[1] * seeds.shape[2] != basis.num_vars:
        raise DimensionError(
            f"seeds must have shape (n, delays, num_states) with delays * "
            f"num_states = {basis.num_vars}, got {seeds.shape}"
        )
    if matrix.shape != (seeds.shape[2], basis.num_monomials):
        raise DimensionError(
            f"matrix must have shape ({seeds.shape[2]}, {basis.num_monomials}), "
            f"got {matrix.shape}"
        )
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    length = seeds.shape[1] + steps
    blocks = _iterate(seeds, steps, basis, matrix, divergence_threshold, length)
    states = np.ascontiguousarray(next(blocks))
    nan = np.isnan(states).any(axis=2)
    diverged_at = np.where(nan.any(axis=1), nan.argmax(axis=1), -1)
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
