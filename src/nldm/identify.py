"""Fitting the one-step operator from training trajectories.

Training stacks snapshot pairs from every trajectory, solves the
minimum-norm least-squares problem, and then scores the fit the hard
way: each training trajectory is re-predicted from its own first
``delays`` states and compared against a reference over the predicted
window.  When the training series are noisy, the clean originals can be
passed separately so the scores measure skill against the truth rather
than against the noise.

``train`` runs two halves: ``_solve`` (snapshot pair, least squares,
the operator without its summary) and ``_score`` (RRMSE of the
re-predicted series, origin multiplier, ``TrainingSummary``), with one
forecast batch between them (``predict._forecast_batch``).  The ``nldm``
commands that fit call the two halves themselves, not ``train``: rows of
the batch are batch-invariant, so ``nldm run`` forecasts its test series
in the same batch as the re-prediction and gets bitwise the scores of
``train``; after ``_solve`` returns, the batch and ``_score`` are one
item of the queue that ``nldm run``'s two processes claim.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from .core import (
    DimensionError,
    FeatureConfig,
    LearnedOperator,
    TrainingSummary,
    UndefinedScoreError,
    record,
)
from .features import build_snapshot_pair
from .lstsq import LstsqReport, solve_min_frobenius
from .metrics import rrmse
from .predict import _forecast_batch, _starts

__all__ = ["TrainingResult", "train"]


@record(eq=False)
class TrainingResult:
    """A fitted operator and its mean training RRMSE."""

    operator: LearnedOperator
    mean_rrmse: float


def _origin_multiplier(operator: LearnedOperator) -> float:
    """Spectral radius of the delay companion matrix of the linear block.

    Monomials of degree two and up vanish to first order at zero, so the
    map's Jacobian at the origin is the linear block stacked on a shift
    of the older delays.
    """
    states, stacked = operator.config.num_states, operator.config.stacked_dim
    companion = np.eye(stacked, k=-states)
    companion[:states] = operator.matrix[:, :stacked]
    return float(np.abs(np.linalg.eigvals(companion)).max())


@record(eq=False)
class _Fit:
    """What ``_solve`` hands to ``_score``: the operator, which has no
    summary yet, and the series and solve diagnostics its scores need.
    The origin multiplier is found with the solve, so that ``_score``
    and the forecasts call no LAPACK routine: ``nldm run`` may run them
    in a process forked after the solve, from one that holds BLAS
    threads."""

    operator: LearnedOperator
    trajectories: list
    references: list
    total_columns: int
    report: LstsqReport
    origin_multiplier: float


def _solve(trajectories, config: FeatureConfig, references=None) -> _Fit:
    """The solve half of ``train``; see there for the arguments and the
    errors."""
    trajectories = list(trajectories)
    if references is not None:
        references = list(references)
        if len(references) != len(trajectories):
            raise DimensionError(
                f"{len(references)} references for {len(trajectories)} "
                "trajectories"
            )
        for q, (trajectory, reference) in enumerate(zip(trajectories, references)):
            if reference.num_samples != trajectory.num_samples:
                raise DimensionError(f"reference {q} length mismatch")

    pair = build_snapshot_pair(trajectories, config)
    if config.num_features > pair.num_columns:
        warnings.warn(
            f"underdetermined fit: {config.num_features} features but only "
            f"{pair.num_columns} snapshot columns; the minimum-norm "
            "solution is reported",
            stacklevel=3,
        )
    report = solve_min_frobenius(pair.features, pair.targets)
    if report.effective_rank == 0:
        raise ValueError("the training features have effective rank 0: the series carry no signal")
    operator = LearnedOperator(
        matrix=report.solution,
        config=config,
        dt=trajectories[0].dt,
        training_summary=None,
    )
    return _Fit(operator, trajectories, references or trajectories, pair.num_columns, report,
                _origin_multiplier(operator))


def _score(fit: _Fit, predictions) -> TrainingResult:
    """The scoring half of ``train``: ``predictions`` are the forecasts
    of ``fit.trajectories`` from their seeds, in order."""
    config = fit.operator.config
    scores = []
    for prediction, reference in zip(predictions, fit.references):
        try:
            scores.append(rrmse(prediction.trajectory, reference, config.delays).mean_rrmse)
        except UndefinedScoreError:
            scores.append(float("nan"))

    summary = TrainingSummary(
        num_trajectories=len(fit.trajectories),
        total_columns=fit.total_columns,
        residual_frobenius=fit.report.residual_frobenius,
        per_trajectory_rrmse=tuple(scores),
        effective_rank=fit.report.effective_rank,
        underdetermined=config.num_features > fit.total_columns,
        origin_multiplier=fit.origin_multiplier,
    )
    operator = replace(fit.operator, training_summary=summary)
    return TrainingResult(operator=operator, mean_rrmse=float(np.mean(scores)))


def train(
    trajectories,
    config: FeatureConfig,
    references=None,
) -> TrainingResult:
    """Fit an operator to the given trajectories.

    The fit is ``_solve``, then one forecast batch that re-predicts every
    series from its first ``delays`` states, padded to the longest
    series, then ``_score``.

    Parameters
    ----------
    trajectories : sequence of Trajectory
        Training series; must share state dimension and dt.
    config : FeatureConfig
    references : sequence of Trajectory, optional
        Clean counterparts used for scoring, aligned with
        ``trajectories``.  Defaults to scoring against the training
        series themselves.

    Returns
    -------
    TrainingResult
        The operator carries a TrainingSummary; per-trajectory scores
        are mean RRMSE across states, NaN where the re-prediction
        diverged or a reference state is constant (the score is
        undefined), and ``mean_rrmse`` averages them (NaN if any is).

    Raises
    ------
    ValueError
        If the features have effective rank 0 (every series sits at the
        origin, say), since such a fit has seen no signal.
    """
    fit = _solve(trajectories, config, references)
    return _score(fit, _forecast_batch(fit.operator, _starts(fit.trajectories, config.delays)))
