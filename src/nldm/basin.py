"""Basin-of-attraction maps over rectangular phase-space windows.

A square grid of initial conditions is advanced either by the reference
integrator or by a learned operator, and every cell is labeled by the
first attractor whose capture test stays satisfied for a run of
consecutive samples.  Capture means being within ``tol`` of a point
attractor (Euclidean distance) or within ``tol`` of a cycle's radius in
its plane.  Cells whose trajectories blow up are labeled ``diverged``;
cells that never settle within the horizon stay ``unresolved``.

One capture walk labels single series, truth cells and operator cells.
Two block sources feed it under one contract: ``odes._dormand_prince_blocks``
(truth cells, each on its own adaptive steps) and ``predict._iterate``
(operator cells, each seeded with its start point in every delay slot)
yield the open cells' samples, start point first, as (cells, T,
num_states) blocks, and after each block take the mask of cells still
open, so a labeled cell stops being advanced.  Both are bitwise
independent of the batch, so refining the grid never relabels a point
that both grids share.  Both grids describe a scan as ``steps`` steps of
``dt`` and label it through ``_scan``, which can label any run of its
cells apart (``_Scan.codes``); only their block sources differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionError, LearnedOperator, _leading
from .features import monomial_basis
from .odes import (
    BenchmarkSystem,
    CycleAttractor,
    IntegratorSettings,
    PointAttractor,
    _dormand_prince_blocks,
)
from .predict import _iterate

__all__ = [
    "UNRESOLVED",
    "DIVERGED",
    "PERSISTENCE",
    "BasinGrid",
    "GridAgreement",
    "ground_truth_grid",
    "operator_grid",
    "grid_agreement",
    "classify_series",
]

UNRESOLVED = "unresolved"
DIVERGED = "diverged"

# Tolerances of the truth grid's integrations: far looser than trajectory
# generation, since the capture tolerance dominates.
GRID_SETTINGS = IntegratorSettings(rel_tol=1e-6, abs_tol=1e-9)

PERSISTENCE = 10  # consecutive captured samples that complete a capture

# Truth cells are sampled min(steps, _TRUTH_INTERVALS) + 1 times over
# steps * dt.  Sampling every dt took 2.5-2.8x the truth-grid time
# (two_attractor, 2000 steps of 0.005, one process: 0.34 -> 0.94 s at 100²),
# most of it in dense output and the capture walk over 5x the samples; it
# waits for a cheaper per-sample source.
_TRUTH_INTERVALS = 400

_OPEN, _DIVERGED = -1, -2  # capture-walk codes of cells without a label
_BLOCK = 32  # samples per capture-walk block


@dataclass(frozen=True, eq=False)
class BasinGrid:
    """Labeled grid: ``labels[i, j]`` classifies the cell at
    ``xs[i], ys[j]``; label values are attractor idents, ``unresolved``,
    or ``diverged``.  ``source`` records how the labels were produced.
    """

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    resolution: int
    labels: np.ndarray
    source: dict
    meta: dict

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_range[0], self.x_range[1], self.resolution)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.y_range[0], self.y_range[1], self.resolution)


@dataclass(frozen=True)
class GridAgreement:
    """How far two basin grids agree (``grid_agreement``)."""

    fraction_agree: float
    compared_cells: int
    confusion: dict


def _check_window(window, resolution):
    (x_lo, x_hi), (y_lo, y_hi) = ((float(lo), float(hi)) for lo, hi in window)
    if not (0 < x_hi - x_lo < math.inf and 0 < y_hi - y_lo < math.inf):
        raise ValueError(f"window must have positive extent, finite as a float, got {window}")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    return (x_lo, x_hi), (y_lo, y_hi)


def _check_capture(tol, steps=1):
    """The capture tolerance, and a scan's step count."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")


def _check_attractors(system):
    if not system.attractors:
        raise ValueError(f"system {system.ident!r} declares no attractors")


def _free_axes(num_states, fixed):
    """The two axes a grid spans once ``fixed`` (axis -> value) pins the rest."""
    if any(not 0 <= axis < num_states for axis in fixed):
        raise DimensionError(f"fixed axes must lie in 0..{num_states - 1}, got {sorted(fixed)}")
    free = [axis for axis in range(num_states) if axis not in fixed]
    if len(free) != 2:
        raise DimensionError(
            f"grid needs exactly 2 free axes, got {len(free)} "
            f"(num_states={num_states}, fixed={sorted(fixed)})"
        )
    return free


def _grid_points(x_range, y_range, resolution, num_states, fixed_coords):
    """Full-dimension initial conditions for every cell, x-major."""
    fixed = dict(fixed_coords or {})
    free = _free_axes(num_states, fixed)
    xs = np.linspace(x_range[0], x_range[1], resolution)
    ys = np.linspace(y_range[0], y_range[1], resolution)
    points = np.empty((resolution * resolution, num_states))
    for axis, value in fixed.items():
        points[:, axis] = value
    points[:, free] = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    return points


def _capture_mask(states: np.ndarray, attractor, tol: float) -> np.ndarray:
    """Boolean capture test per row of ``states`` (rows with NaN fail)."""
    with np.errstate(invalid="ignore", over="ignore"):
        if isinstance(attractor, PointAttractor):
            delta = states - np.asarray(attractor.location)
            return np.einsum("...i,...i->...", delta, delta) < tol * tol
        if isinstance(attractor, CycleAttractor):
            ax0, ax1 = attractor.axes
            radius = np.hypot(states[..., ax0], states[..., ax1])
            mask = np.abs(radius - attractor.radius) < tol
            for axis, value in attractor.plane:
                mask &= np.abs(states[..., axis] - value) < tol
            return mask
    raise TypeError(f"unknown attractor type {type(attractor).__name__}")


def _capture_walk(block, attractors, tol, codes, runs, work):
    """Walk every cell through one block of samples, shape (cells, T,
    num_states), updating ``codes`` (attractor index, ``_OPEN`` or
    ``_DIVERGED`` per cell) and ``runs`` (capture run per attractor and
    cell, carried from block to block) in place.  ``work`` is a pair of
    int64 and bool workspaces of at least attractors * cells * T
    entries, which hold the (attractors, cells, T) arrays."""
    cells, length = block.shape[:2]
    if length == 0:
        return
    shape = (len(attractors), cells, length)
    run, hit = _leading(work[0], shape), _leading(work[1], shape)
    finite = np.isfinite(block).all(axis=2)
    for attractor, captured in zip(attractors, hit):
        np.logical_and(_capture_mask(block, attractor, tol), finite, out=captured)
    # A run counts back to the last miss; a carried run of r samples acts
    # as a miss at sample -1 - r.
    t = np.arange(length)
    run[...] = t
    np.copyto(run, -1 - runs[..., None], where=hit)
    np.maximum.accumulate(run, axis=2, out=run)
    np.subtract(t, run, out=run)
    runs[:] = run[..., -1]
    # First completed run per attractor, then the first non-finite sample
    # (``length`` if none); the earliest wins, ties in catalog order.
    done = np.greater_equal(run, PERSISTENCE, out=hit)
    first = np.where(done.any(axis=2), done.argmax(axis=2), length)
    bad = np.where(finite.all(axis=1), length, (~finite).argmax(axis=1))
    first = np.vstack([first, bad])
    winner = first.argmin(axis=0)
    settled = (codes == _OPEN) & (first.min(axis=0) < length)
    codes[settled] = np.where(winner < len(attractors), winner, _DIVERGED)[settled]


def _capture_codes(blocks, attractors, tol):
    """The capture code of every cell of a generator of sample blocks:
    the index of its attractor, ``_OPEN`` or ``_DIVERGED``.

    The first block holds every cell, shape (cells, T, num_states).  After
    each block it sends the generator a mask of that block's cells
    that are still open, and the next block holds only those; it stops
    once no cell is open or the blocks run out.  The capture walk's
    workspaces are sized for the first block and grow only for a larger
    one.
    """
    block = next(blocks)
    rows = np.arange(len(block))
    codes = np.full(len(block), _OPEN)
    runs = np.zeros((len(attractors), len(block)), dtype=np.int64)
    work = (np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
    while True:
        size = len(attractors) * block.shape[0] * block.shape[1]
        if size > work[0].size:
            work = (np.empty(size, dtype=np.int64), np.empty(size, dtype=bool))
        open_codes, open_runs = codes[rows], runs[:, rows]
        _capture_walk(block, attractors, tol, open_codes, open_runs, work)
        codes[rows], runs[:, rows] = open_codes, open_runs
        still_open = open_codes == _OPEN
        rows = rows[still_open]
        if not rows.size:
            break
        try:
            block = blocks.send(still_open)
        except StopIteration:
            break
    return codes


def _names(attractors):
    """The label of each capture code, indexed by the code: -1 (open) is
    the last entry and -2 the one before it."""
    return np.array([attractor.ident for attractor in attractors] + [DIVERGED, UNRESOLVED],
                    dtype=object)


def _classify(blocks, attractors, tol):
    """Label every cell of a generator of sample blocks (see ``_capture_codes``)."""
    return _names(attractors)[_capture_codes(blocks, attractors, tol)]


def classify_series(states: np.ndarray, attractors, tol: float) -> str:
    """Label one sampled trajectory.

    The winner is the attractor whose capture test first holds for
    ``PERSISTENCE`` consecutive samples; earlier catalog position breaks
    ties.  A non-finite sample before any capture completes means
    ``diverged``; otherwise ``unresolved``.  ``states`` is (samples,
    num_states), with the attractors' state count.
    """
    _check_capture(tol)
    states = np.asarray(states, dtype=float)
    if states.ndim != 2:
        raise DimensionError(f"states must be (samples, num_states), got shape {states.shape}")
    for attractor in attractors:
        fits = True  # an unknown attractor type is named by _capture_mask
        if isinstance(attractor, PointAttractor):
            wanted = len(attractor.location)
            fits = states.shape[1] == wanted
        elif isinstance(attractor, CycleAttractor):
            axes = attractor.axes + tuple(axis for axis, _ in attractor.plane)
            wanted = f">= {max(axes) + 1}"
            fits = 0 <= min(axes) and max(axes) < states.shape[1]
        if not fits:
            raise DimensionError(
                f"states have shape {states.shape}, attractor {attractor.ident!r} "
                f"expects (samples, {wanted})"
            )
    blocks = (block for block in [states[None]])  # a generator, so _classify can send
    return _classify(blocks, attractors, tol)[0]


class _Scan:
    """A checked scan: every cell's start point, x-major, which ``codes``
    labels a run of cells at a time and ``grid`` lays out once every
    cell has its code.  ``blocks`` maps start points, shape (cells,
    num_states), to a block source (see the module docstring).  A plain
    class, as each command imports this module: a dataclass would cost
    0.3 ms to define."""

    def __init__(self, points, blocks, attractors, tol, fields):
        self.points = points
        self.blocks = blocks
        self.attractors = attractors
        self.tol = tol
        self.fields = fields  # BasinGrid's fields but the labels

    def codes(self, start=0, stop=None) -> np.ndarray:
        """The capture codes of cells ``start`` to ``stop``, each the same
        as in a scan of any other run of cells."""
        return _capture_codes(self.blocks(self.points[start:stop]), self.attractors, self.tol)

    def grid(self, codes) -> BasinGrid:
        """The grid of every cell's code, in cell order."""
        resolution = self.fields["resolution"]
        labels = _names(self.attractors)[codes].reshape(resolution, resolution)
        return BasinGrid(labels=labels, **self.fields)


def _scan(kind, system, window, resolution, steps, dt, tol, fixed_coords, blocks, **meta):
    """The scan of ``steps`` steps of ``dt`` whose cells a block source of
    kind ``kind``, made by ``blocks``, advances (see ``_Scan``)."""
    _check_attractors(system)
    _check_capture(tol, steps)
    x_range, y_range = _check_window(window, resolution)
    points = _grid_points(x_range, y_range, resolution, system.num_states, fixed_coords)
    return _Scan(points, blocks, tuple(system.attractors), tol, dict(
        x_range=x_range,
        y_range=y_range,
        resolution=resolution,
        source={"kind": kind, "system": system.ident, "params": dict(system.params)},
        meta={
            "steps": int(steps),
            "dt": float(dt),
            "tol": float(tol),
            **meta,
            "fixed_coords": dict(fixed_coords or {}),
        },
    ))


def ground_truth_grid(
    system: BenchmarkSystem,
    window,
    resolution: int,
    steps: int,
    dt: float,
    tol: float = 0.05,
    fixed_coords=None,
) -> BasinGrid:
    """Label every cell by integrating its initial condition.

    All cells are integrated in one batch over ``(0, steps * dt)`` by the
    integrator behind ``integrate`` at ``GRID_SETTINGS``, each on its own
    adaptive Dormand-Prince steps, and sampled at ``min(steps, 400) + 1``
    uniform points, so labels never depend on neighboring cells.  The
    capture walk reads the samples in blocks, and a cell stops being
    integrated once it has a label.  A cell whose integration fails turns
    non-finite and is ``diverged`` unless a capture completed before.
    ``system.rhs`` must evaluate a (num_states, cells) array column by
    column, as every catalog right-hand side does.
    """
    scan = _truth_scan(system, window, resolution, steps, dt, tol, fixed_coords)
    return scan.grid(scan.codes())


def _truth_scan(system, window, resolution, steps, dt, tol=0.05, fixed_coords=None) -> _Scan:
    """``ground_truth_grid``'s scan, whose cells can be labelled a run at a time."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    horizon = steps * dt
    num_samples = min(steps, _TRUTH_INTERVALS) + 1

    def blocks(points):
        return _dormand_prince_blocks(
            system.rhs, points, (0.0, horizon), num_samples, GRID_SETTINGS, _BLOCK
        )

    return _scan("integrator", system, window, resolution, steps, dt, tol, fixed_coords,
                 blocks, horizon=float(horizon), num_samples=num_samples)


def _operator_blocks(operator, points, steps):
    """Kernel blocks from each start point repeated into every delay slot."""
    seeds = np.repeat(points[:, None, :], operator.config.delays, axis=1)
    basis = monomial_basis(operator.config)
    return _iterate(seeds, steps, basis, operator.matrix, _BLOCK)


def operator_grid(
    operator: LearnedOperator,
    system: BenchmarkSystem,
    window,
    resolution: int,
    steps: int = 1000,
    tol: float = 0.05,
    fixed_coords=None,
) -> BasinGrid:
    """Label every cell by iterating the learned operator.

    Each grid point is replicated into ``delays`` identical seed states
    and advanced for ``steps`` samples; capture tests match
    ``ground_truth_grid``.  All arithmetic is elementwise, so a cell's
    label is identical whether it is advanced alone or with the whole
    grid.
    """
    scan = _operator_scan(operator, system, window, resolution, steps, tol, fixed_coords)
    return scan.grid(scan.codes())


def _operator_scan(operator, system, window, resolution, steps=1000, tol=0.05,
                   fixed_coords=None) -> _Scan:
    """``operator_grid``'s scan, whose cells can be labelled a run at a time."""
    _check_attractors(system)
    if operator.config.num_states != system.num_states:
        raise DimensionError(
            f"operator has {operator.config.num_states} states, system "
            f"{system.ident!r} has {system.num_states}"
        )

    def blocks(points):
        return _operator_blocks(operator, points, steps)

    return _scan("operator", system, window, resolution, steps, operator.dt, tol,
                 fixed_coords, blocks)


def grid_agreement(truth: BasinGrid, predicted: BasinGrid) -> GridAgreement:
    """Fraction of cells with matching labels.

    Cells unresolved in both grids are excluded from the fraction (they
    carry no information about either map); the confusion table counts
    every cell.  Windows and resolution must match exactly.
    """
    if (
        truth.x_range != predicted.x_range
        or truth.y_range != predicted.y_range
        or truth.resolution != predicted.resolution
    ):
        raise DimensionError(
            "grids cover different windows or resolutions: "
            f"{truth.x_range}x{truth.y_range}@{truth.resolution} vs "
            f"{predicted.x_range}x{predicted.y_range}@{predicted.resolution}"
        )
    a = truth.labels.ravel()
    b = predicted.labels.ravel()
    considered = (a != UNRESOLVED) | (b != UNRESOLVED)
    compared = int(considered.sum())
    fraction = float(((a == b) & considered).sum() / compared) if compared else 1.0
    confusion: dict = {}
    for truth_label, predicted_label in zip(a, b):
        row = confusion.setdefault(str(truth_label), {})
        row[str(predicted_label)] = row.get(str(predicted_label), 0) + 1
    return GridAgreement(
        fraction_agree=fraction, compared_cells=compared, confusion=confusion
    )
