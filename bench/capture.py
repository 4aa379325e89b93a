"""The benchmark's own copy of the attractor capture rule.

A state is captured by a point attractor within Euclidean distance
``tol`` and by a circular cycle within ``tol`` of its radius.  A label is
final once one capture test has held for ``PERSISTENCE`` consecutive
samples, or once the state leaves the finite range.  The benchmark keeps
this copy so that its checks and ratios do not move when the program's
own rule changes.
"""

from __future__ import annotations

import numpy as np

PERSISTENCE = 10
DIVERGENCE_THRESHOLD = 1e6

# (ident, kind, location or radius) in catalog order.
ATTRACTORS = {
    "two_attractor": (
        ("left_sink", "point", (-1.0, 0.0)),
        ("right_sink", "point", (1.0, 0.0)),
    ),
    "dual_limit_cycle": (
        ("origin", "point", (0.0, 0.0)),
        ("outer_cycle", "cycle", 2.0),
    ),
}


def capture_masks(states: np.ndarray, attractors, tol: float) -> np.ndarray:
    """Boolean (num_attractors, num_rows) capture tests for planar states."""
    with np.errstate(invalid="ignore", over="ignore"):
        masks = []
        for _, kind, where in attractors:
            if kind == "point":
                masks.append(np.hypot(*(states - np.asarray(where)).T) < tol)
            else:
                masks.append(np.abs(np.hypot(states[:, 0], states[:, 1]) - where) < tol)
    return np.array(masks)


class OpenCells:
    """Tracks which grid cells still lack a final label, step by step.

    ``useful`` counts cell-steps advanced while the cell was open and
    ``total`` all cell-steps advanced, so ``useful / total`` is the share
    of operator-grid work that could still change a label.
    """

    def __init__(self, attractors, tol: float):
        self.attractors = attractors
        self.tol = tol
        self.runs = None
        self.open = None
        self.useful = 0
        self.total = 0

    def _absorb(self, states: np.ndarray) -> None:
        hits = capture_masks(states, self.attractors, self.tol)
        self.runs = np.where(hits, self.runs + 1, 0)
        self.open &= ~(self.runs >= PERSISTENCE).any(axis=0)

    def start(self, windows: np.ndarray) -> None:
        """Seed from the first step's windows: the grid point repeated."""
        n, delays, _ = windows.shape
        self.runs = np.zeros((len(self.attractors), n), dtype=np.int64)
        self.open = np.ones(n, dtype=bool)
        for _ in range(delays):
            self._absorb(windows[:, -1])

    def step(self, produced: np.ndarray) -> None:
        self.total += produced.shape[0]
        self.useful += int(self.open.sum())
        with np.errstate(invalid="ignore"):
            bad = ~np.isfinite(produced).all(axis=1)
            bad |= np.abs(produced).max(axis=1) > DIVERGENCE_THRESHOLD
        self.open &= ~bad
        states = produced.copy()
        states[bad] = np.nan
        self._absorb(states)
