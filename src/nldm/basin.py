"""Basin-of-attraction maps over rectangular phase-space windows.

A square grid of initial conditions is advanced either by the reference
integrator or by a learned operator, and every cell is labeled by the
first attractor whose capture test stays satisfied for a run of
consecutive samples.  Capture means being within ``tol`` of a point
attractor (Euclidean distance) or within ``tol`` of a cycle's radius in
its plane.  Cells whose trajectories blow up are labeled ``diverged``;
cells that never settle within the horizon stay ``unresolved``.

Each cell is treated independently: ground-truth cells get their own
adaptive integration, and operator cells are advanced by the forecasting
kernel of ``predict``, whose batch arithmetic is bitwise independent of
the batch, so refining the grid never relabels a point that both grids
share.  The operator walk stops once every cell has a label.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import DimensionError, IntegrationError, LearnedOperator
from .features import monomial_basis
from .odes import (
    BenchmarkSystem,
    CycleAttractor,
    IntegratorSettings,
    PointAttractor,
    integrate,
)
from .predict import DIVERGENCE_THRESHOLD, _iterate

__all__ = [
    "UNRESOLVED",
    "DIVERGED",
    "BasinGrid",
    "GridAgreement",
    "ground_truth_grid",
    "operator_grid",
    "grid_agreement",
    "classify_series",
]

UNRESOLVED = "unresolved"
DIVERGED = "diverged"

# Default tolerances for per-cell classification integrations: far looser
# than trajectory generation, since the capture tolerance dominates.
GRID_SETTINGS = IntegratorSettings(rel_tol=1e-6, abs_tol=1e-9)


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
    fraction_agree: float
    compared_cells: int
    confusion: dict


def _check_window(window, resolution):
    (x_lo, x_hi), (y_lo, y_hi) = window
    if not (x_hi > x_lo and y_hi > y_lo):
        raise ValueError(f"window must have positive extent, got {window}")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    return (float(x_lo), float(x_hi)), (float(y_lo), float(y_hi))


def _check_capture(tol, persistence):
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if persistence < 1:
        raise ValueError(f"persistence must be >= 1, got {persistence}")


def _grid_points(x_range, y_range, resolution, num_states, fixed_coords):
    """Full-dimension initial conditions for every cell, x-major."""
    fixed = dict(fixed_coords or {})
    free = [axis for axis in range(num_states) if axis not in fixed]
    if len(free) != 2:
        raise DimensionError(
            f"grid needs exactly 2 free axes, got {len(free)} "
            f"(num_states={num_states}, fixed={sorted(fixed)})"
        )
    xs = np.linspace(x_range[0], x_range[1], resolution)
    ys = np.linspace(y_range[0], y_range[1], resolution)
    points = np.empty((resolution * resolution, num_states))
    for axis, value in fixed.items():
        points[:, axis] = value
    grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
    points[:, free[0]] = grid_x.ravel()
    points[:, free[1]] = grid_y.ravel()
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


def classify_series(
    states: np.ndarray, attractors, tol: float, persistence: int = 10
) -> str:
    """Label one sampled trajectory.

    The winner is the attractor whose capture test first holds for
    ``persistence`` consecutive samples; earlier catalog position breaks
    ties.  A non-finite sample before any capture completes means
    ``diverged``; otherwise ``unresolved``.
    """
    _check_capture(tol, persistence)
    states = np.asarray(states, dtype=float)
    finite = np.isfinite(states).all(axis=1)
    first_bad = int(np.argmax(~finite)) if not finite.all() else states.shape[0]
    prefix = states[:first_bad]
    best_step = None
    best_ident = None
    for attractor in attractors:
        mask = _capture_mask(prefix, attractor, tol)
        run = 0
        for step, hit in enumerate(mask):
            run = run + 1 if hit else 0
            if run >= persistence:
                if best_step is None or step < best_step:
                    best_step = step
                    best_ident = attractor.ident
                break
    if best_ident is not None:
        return best_ident
    return DIVERGED if first_bad < states.shape[0] else UNRESOLVED


def _classify_cells(system, points, horizon, num_samples, tol, persistence, settings):
    labels = []
    for point in points:
        try:
            trajectory = integrate(
                system, point, (0.0, horizon), num_samples, settings
            )
        except IntegrationError:
            labels.append(DIVERGED)
            continue
        labels.append(
            classify_series(trajectory.states, system.attractors, tol, persistence)
        )
    return labels


def _classify_chunk(args):
    return _classify_cells(*args)


def ground_truth_grid(
    system: BenchmarkSystem,
    window,
    resolution: int,
    horizon: float,
    tol: float = 0.05,
    persistence: int = 10,
    num_samples: int = 401,
    settings: IntegratorSettings | None = None,
    fixed_coords=None,
    n_jobs: int = 1,
) -> BasinGrid:
    """Label every cell by integrating its initial condition.

    Each cell is integrated on its own over ``(0, horizon)`` and sampled
    at ``num_samples`` uniform points, so labels never depend on
    neighboring cells.  ``n_jobs > 1`` distributes rows of cells across
    processes.
    """
    if not system.attractors:
        raise ValueError(f"system {system.ident!r} declares no attractors")
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    x_range, y_range = _check_window(window, resolution)
    _check_capture(tol, persistence)
    if settings is None:
        settings = GRID_SETTINGS
    points = _grid_points(x_range, y_range, resolution, system.num_states, fixed_coords)

    args = (horizon, num_samples, tol, persistence, settings)
    if n_jobs > 1:
        tasks = [(system, row, *args) for row in np.array_split(points, resolution)]
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            labels = [label for chunk in pool.map(_classify_chunk, tasks) for label in chunk]
    else:
        labels = _classify_cells(system, points, *args)

    grid = np.array(labels, dtype=object).reshape(resolution, resolution)
    return BasinGrid(
        x_range=x_range,
        y_range=y_range,
        resolution=resolution,
        labels=grid,
        source={"kind": "integrator", "system": system.ident, "params": dict(system.params)},
        meta={
            "horizon": float(horizon),
            "num_samples": int(num_samples),
            "tol": float(tol),
            "persistence": int(persistence),
            "rel_tol": settings.rel_tol,
            "abs_tol": settings.abs_tol,
            "fixed_coords": dict(fixed_coords or {}),
        },
    )


def _operator_labels(
    operator, attractors, points, steps, tol, persistence, divergence_threshold
):
    """Label a batch of start points by iterating the operator.

    Implements the same first-capture-wins walk as ``classify_series``,
    but incrementally on the states the forecasting kernel yields, so the
    full (n, steps) state history is never materialized.  Seed rows
    participate in the capture runs exactly as the initial samples do in
    the ground-truth walk.  A label is final once set, so the walk stops
    as soon as no cell is still open.
    """
    config = operator.config
    n = points.shape[0]
    codes = np.full(n, -1, dtype=np.int64)  # -1 open, -2 diverged
    counters = np.zeros((len(attractors), n), dtype=np.int64)
    seeds = np.repeat(points[:, None, :], config.delays, axis=1)
    kernel = _iterate(
        seeds, steps, monomial_basis(config), operator.matrix, divergence_threshold
    )
    # One sample per cell: the seed rows, then each state the kernel yields
    # (a diverged row comes out NaN).
    for rows in itertools.chain([points] * config.delays, kernel):
        codes[np.isnan(rows).any(axis=1) & (codes == -1)] = -2
        for code, attractor in enumerate(attractors):
            hit = _capture_mask(rows, attractor, tol)
            counters[code] = np.where(hit, counters[code] + 1, 0)
        # Settle new captures in catalog order so ties at the same step
        # go to the earlier one.
        for code in range(len(attractors)):
            codes[(counters[code] >= persistence) & (codes == -1)] = code
        if not (codes == -1).any():
            break

    # Code -1 indexes the last entry and -2 the one before it.
    names = [attractor.ident for attractor in attractors] + [DIVERGED, UNRESOLVED]
    return np.array(names, dtype=object)[codes]


def operator_grid(
    operator: LearnedOperator,
    system: BenchmarkSystem,
    window,
    resolution: int,
    steps: int = 1000,
    tol: float = 0.05,
    persistence: int = 10,
    divergence_threshold: float = DIVERGENCE_THRESHOLD,
    fixed_coords=None,
) -> BasinGrid:
    """Label every cell by iterating the learned operator.

    Each grid point is replicated into ``delays`` identical seed states
    and advanced for ``steps`` samples; capture tests match
    ``ground_truth_grid``.  All arithmetic is elementwise, so a cell's
    label is identical whether it is advanced alone or with the whole
    grid.
    """
    if not system.attractors:
        raise ValueError(f"system {system.ident!r} declares no attractors")
    if operator.config.num_states != system.num_states:
        raise DimensionError(
            f"operator has {operator.config.num_states} states, system "
            f"{system.ident!r} has {system.num_states}"
        )
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    x_range, y_range = _check_window(window, resolution)
    _check_capture(tol, persistence)
    points = _grid_points(x_range, y_range, resolution, system.num_states, fixed_coords)
    labels = _operator_labels(
        operator, system.attractors, points, steps, tol, persistence, divergence_threshold
    )
    return BasinGrid(
        x_range=x_range,
        y_range=y_range,
        resolution=resolution,
        labels=labels.reshape(resolution, resolution),
        source={"kind": "operator", "system": system.ident, "params": dict(system.params)},
        meta={
            "steps": int(steps),
            "dt": operator.dt,
            "tol": float(tol),
            "persistence": int(persistence),
            "divergence_threshold": float(divergence_threshold),
            "seeding": "grid point repeated for every delay slot",
            "fixed_coords": dict(fixed_coords or {}),
        },
    )


def label_operator_cell(
    operator: LearnedOperator,
    system: BenchmarkSystem,
    point,
    steps: int = 1000,
    tol: float = 0.05,
    persistence: int = 10,
    divergence_threshold: float = DIVERGENCE_THRESHOLD,
) -> str:
    """Label a single start point (same code path as ``operator_grid``)."""
    point = np.asarray(point, dtype=float).reshape(1, -1)
    if point.shape[1] != system.num_states:
        raise DimensionError(
            f"point has {point.shape[1]} entries, system has {system.num_states}"
        )
    _check_capture(tol, persistence)
    return _operator_labels(
        operator, system.attractors, point, steps, tol, persistence, divergence_threshold
    )[0]


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
    both_unresolved = (a == UNRESOLVED) & (b == UNRESOLVED)
    considered = ~both_unresolved
    compared = int(considered.sum())
    if compared:
        fraction = float(((a == b) & considered).sum() / compared)
    else:
        fraction = 1.0
    confusion: dict = {}
    for truth_label, predicted_label in zip(a, b):
        row = confusion.setdefault(str(truth_label), {})
        row[str(predicted_label)] = row.get(str(predicted_label), 0) + 1
    return GridAgreement(
        fraction_agree=fraction, compared_cells=compared, confusion=confusion
    )
