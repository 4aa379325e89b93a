"""Iterative forecasting with a learned one-step operator.

Starting from ``delays`` seed states, each step lifts the most recent
window and applies the operator matrix to produce the next state.
``_iterate`` is the one loop that steps an operator, for forecasts,
training re-prediction and operator basin grids.  It is a block source
like ``odes._dormand_prince_blocks``: it yields each row's seeds and then
its forecast as fresh (rows, T, num_states) blocks, and after each block
takes a mask of the rows to step further.  It holds its arrays
state-major, one column per row, in buffers allocated once per run.  A
block's samples live in one history buffer, newest first, with the
previous ``delays`` samples carried in behind them, so a step's window
is one contiguous slice.  Each block builds its lift plan once
(``MonomialBasis._lift_plan``), and a step slices nothing: it copies its
window into the degree-1 rows, forms the higher monomials and writes
their weighted sum into the history (``core._weighted_sum``, by which
the integrator forms its stage sums too); a reordered basis steps as the
canonical one, the operator's columns reordered once per run.  A narrow
block, of at most ``_NARROW_ROWS`` rows, forms each degree >= 2 with one
``take`` of its variable and parent rows and one multiply, a fixed few
calls, since numpy's per-call overhead is most of its cost.  A wider
block forms each run of monomials with one multiply of views, with
numpy's ufunc buffer no longer than a row: a ufunc copies a broadcast
operand whose rows are shorter than its buffer through it, which was
slower than iterating in place at most widths (numpy 2.4).
``_NARROW_ROWS`` is the crossover of the two forms measured on a 2-core
AMD EPYC (CHANGES.md has the per-step table).  Every path forms the same
monomials and adds the same products in the same order, so a row's
samples are bitwise identical alone or in a batch of any size, in blocks
of any length and in either form.  Once a produced state exceeds
``DIVERGENCE_THRESHOLD`` in max-norm (or is non-finite), the rest of the
trajectory is NaN; the test runs once per block, which gives the same
samples as a test after every step, since a row's later samples depend
only on its earlier ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import DimensionError, LearnedOperator, Trajectory, _leading, _weighted_sum
from .features import MonomialBasis, monomial_basis

__all__ = ["Prediction", "predict", "iterate_batch"]

DIVERGENCE_THRESHOLD = 1e6
# Blocks of at most this many rows step in the narrow form (see above).
_NARROW_ROWS = 512


@dataclass(frozen=True, eq=False)
class Prediction:
    """Seeded forecast: ``trajectory`` holds the seeds followed by the
    predicted states.  ``diverged_at`` is the index of the first NaN
    sample, or None; everything from that index on is NaN.
    """

    trajectory: Trajectory
    diverged_at: int | None


def _iterate(seeds, steps, basis, matrix, block):
    """Yield each kept row's seeds and then ``steps`` forecast states,
    ``block`` samples at a time; a boolean mask sent after a block keeps
    the rows of that block to step further.  Each state is one
    ``core._weighted_sum`` of its features."""
    n, delays, num_states = seeds.shape
    span = delays * num_states
    seed_columns = seeds.transpose(1, 2, 0)  # (delays, S, rows)
    if basis._order is not None:  # stepped as the canonical basis
        matrix = matrix[:, np.argsort(basis._order)]
    weights = np.ascontiguousarray(matrix)  # (S, features)
    num_features = weights.shape[1]
    total = delays + steps
    # Workspaces sized for the first block (see ``core._leading``).  The
    # history holds a block's samples newest first and the ``delays``
    # samples before them behind, shape (length + delays, S, rows), so
    # the lags of a step, newest first, are one contiguous slice.
    lift_space = np.empty(num_features * n)
    history_space = np.empty((min(block, total) + delays) * num_states * n)
    # A narrow block's degree operands, one column per row.
    pair_space = np.empty(2 * basis._widest_degree * min(n, _NARROW_ROWS))
    rows, carried = n, None
    for first in range(0, total, block):
        length = min(first + block, total) - first
        history = _leading(history_space, (length + delays, num_states, rows))
        lift = _leading(lift_space, (num_features, rows))
        if carried is not None:
            history[length:] = carried
        # Sample first + j sits at position length - 1 - j.
        seeded = max(min(first + length, delays) - first, 0)
        history[length - seeded:length] = seed_columns[first:first + seeded][::-1]
        stepped = length - seeded  # produced samples, at positions 0 .. stepped - 1
        # windows[i], shape (span, rows), is the window of the step that
        # writes position i, and fills the lift's degree-1 rows.
        windows = as_strided(history[1:], (length, span, rows), history.strides, writeable=False)
        linear = lift[:span]
        narrow = rows <= _NARROW_ROWS
        products = basis._lift_plan(lift, pair_space if narrow else None)
        # A wide block's ufunc buffer is no longer than a row, in the
        # multiples of 16 numpy takes.
        buffer = np.getbufsize() if narrow else min(np.getbufsize(), max(rows // 16 * 16, 16))
        weighted_sum = _weighted_sum(weights, lift)
        with np.errstate(over="ignore", invalid="ignore"):
            default = np.setbufsize(buffer)
            try:
                for i in range(stepped - 1, -1, -1):
                    np.copyto(linear, windows[i])
                    for gather, operands in products:
                        if gather:
                            lift.take(*gather)
                        np.multiply(*operands)
                    weighted_sum(out=history[i])
            finally:
                np.setbufsize(default)
        if stepped:
            _cut_divergent(history[:stepped])
        # A fresh block, state-major in memory like the kernel's arrays.
        samples = history[length - 1::-1].transpose(1, 2, 0)
        keep = yield samples.copy().transpose(1, 2, 0)
        carried = history[:delays]
        if keep is not None:
            carried = carried[:, :, keep]
            seed_columns = seed_columns[:, :, keep]
            rows = carried.shape[2]


def _cut_divergent(produced):
    """NaN every produced sample, shape (samples, S, columns) newest
    first, from each column's first one on whose max-norm is not within
    ``DIVERGENCE_THRESHOLD`` (a NaN compares False, so non-finite ones too).
    A row's later samples depend only on its earlier ones, so this is
    the rule applied step by step."""

    def within(samples, axis):
        return ((samples.max(axis=axis) <= DIVERGENCE_THRESHOLD)
                & (samples.min(axis=axis) >= -DIVERGENCE_THRESHOLD))

    bad = (~within(produced, (0, 1))).nonzero()[0]
    if bad.size:
        samples = produced[:, :, bad]
        # The first bad sample in time is the last one in the history.
        sample_bad = ~within(samples, 1)
        last = len(produced) - 1 - sample_bad[::-1].argmax(axis=0)
        cut = np.arange(len(produced))[:, None] <= last
        produced[:, :, bad] = np.where(cut[:, None], np.nan, samples)


def iterate_batch(
    seeds: np.ndarray,
    steps: int,
    basis: MonomialBasis,
    matrix: np.ndarray,
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
    blocks = _iterate(seeds, steps, basis, matrix, length)
    states = np.ascontiguousarray(next(blocks))
    nan = np.isnan(states).any(axis=2)
    diverged_at = np.where(nan.any(axis=1), nan.argmax(axis=1), -1)
    return states, diverged_at


def _starts(trajectories, delays: int) -> list:
    """``(seeds, steps, t0)`` that forecast each trajectory over its own
    samples from its first ``delays`` states."""
    return [(trajectory.states[:delays], trajectory.num_samples - delays, trajectory.t0)
            for trajectory in trajectories]


def _forecast_batch(operator: LearnedOperator, starts) -> list[Prediction]:
    """The forecast of each ``(seeds, steps, t0)`` in ``starts``, all from
    one ``iterate_batch`` padded to the longest.

    Each start is checked as ``predict`` documents.  A row is cut to its
    own ``delays + steps`` samples and ``diverged_at`` is read from that
    cut, so a short row that would cross ``DIVERGENCE_THRESHOLD`` only in
    its padding has not diverged.  Rows depend neither on their batch
    mates nor on the padding after them, so each forecast is bitwise
    ``predict`` of its start alone.
    """
    config = operator.config
    batch = []
    for seeds, steps, _ in starts:
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
        batch.append(seeds)
    longest = max(steps for _, steps, _ in starts)
    states, _ = iterate_batch(np.stack(batch), longest, monomial_basis(config), operator.matrix)
    predictions = []
    for row, (_, steps, t0) in zip(states, starts):
        trajectory = Trajectory(row[:config.delays + steps], dt=operator.dt, t0=t0)
        nan = np.isnan(trajectory.states).any(axis=1)
        predictions.append(Prediction(trajectory, int(nan.argmax()) if nan.any() else None))
    return predictions


def predict(
    operator: LearnedOperator,
    seeds: np.ndarray,
    steps: int,
    t0: float = 0.0,
) -> Prediction:
    """Forecast ``steps`` states from exactly ``delays`` seed states.

    ``seeds`` must have shape (delays, num_states) and be finite, and
    seeds plus steps must make at least two samples; the returned
    trajectory has the seeds as its first rows and inherits the
    operator's sampling interval.  It is bitwise the forecast of these
    seeds in any batch (see ``core._weighted_sum``), padded or not: the
    commands forecast all their series, training and test, in one
    (``_forecast_batch``).
    """
    return _forecast_batch(operator, [(seeds, steps, t0)])[0]
