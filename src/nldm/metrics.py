"""Relative root-mean-square skill scores for predicted trajectories.

The comparison starts at the first predicted sample (index ``skip``,
normally the number of delays), so the seeded prefix never counts.  Each
state's RMS error is normalized by the population standard deviation of
the reference over the same window; the trajectory score is the plain
mean across states.  Non-finite predictions propagate to NaN scores
rather than raising.  A state whose squares overflow a float is scaled
by its largest magnitude for its standard deviation and RMS error, so
its score stays finite; every other state keeps the plain formula.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DimensionError, Trajectory, UndefinedScoreError, _dt_differs, _rescue_overflow, record)

__all__ = ["SkillScore", "rrmse"]


@record(eq=False)
class SkillScore:
    """A forecast's RRMSE per state and their mean (``rrmse``)."""

    per_state_rrmse: np.ndarray
    mean_rrmse: float
    compared_points: int


def _std(columns):
    return columns.std(axis=0)


def _rms(columns):
    return np.sqrt(np.mean(columns ** 2, axis=0))


def rrmse(predicted: Trajectory, reference: Trajectory, skip: int) -> SkillScore:
    """Score ``predicted`` against ``reference`` from sample ``skip`` on.

    Raises
    ------
    DimensionError
        If lengths, state counts, or sampling intervals differ, or no
        samples remain after ``skip``.
    UndefinedScoreError
        If some reference state is constant over the compared window.
    ValueError
        If the reference itself contains non-finite entries.
    """
    if predicted.num_samples != reference.num_samples:
        raise DimensionError(
            f"length mismatch: predicted {predicted.num_samples}, "
            f"reference {reference.num_samples}"
        )
    if predicted.num_states != reference.num_states:
        raise DimensionError(
            f"state mismatch: predicted {predicted.num_states}, "
            f"reference {reference.num_states}"
        )
    if _dt_differs(predicted.dt, reference.dt):
        raise DimensionError(
            f"dt mismatch: predicted {predicted.dt}, reference {reference.dt}"
        )
    if not 0 <= skip < reference.num_samples:
        raise DimensionError(
            f"skip={skip} leaves no samples out of {reference.num_samples}"
        )
    ref = reference.states[skip:]
    pred = predicted.states[skip:]
    if not np.all(np.isfinite(ref)):
        raise ValueError("reference contains non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        std = _rescue_overflow(_std, ref)
    flat = np.flatnonzero(std == 0.0)
    if flat.size:
        raise UndefinedScoreError(
            f"reference state {flat[0]} is constant over the compared window"
        )
    compared = ref.shape[0]
    with np.errstate(invalid="ignore", over="ignore"):
        error = pred - ref
        per_state = _rescue_overflow(_rms, error) / std
        mean = float(np.mean(per_state))
    per_state.flags.writeable = False
    return SkillScore(per_state_rrmse=per_state, mean_rrmse=mean, compared_points=compared)
