"""Fitting the one-step operator from training trajectories.

Training stacks snapshot pairs from every trajectory, solves the
minimum-norm least-squares problem, and then scores the fit the hard
way: each training trajectory is re-predicted from its own first
``delays`` states and compared against a reference over the predicted
window.  All series are re-predicted in one batch padded to the longest;
rows are batch-invariant, so each score is bitwise that of a forecast of
its series alone.  When the training series are noisy, the clean
originals can be passed separately so the scores measure skill against
the truth rather than against the noise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DimensionError,
    FeatureConfig,
    LearnedOperator,
    Trajectory,
    TrainingSummary,
    UndefinedScoreError,
)
from .features import build_snapshot_pair, monomial_basis
from .lstsq import solve_min_frobenius
from .metrics import rrmse
from .predict import iterate_batch

__all__ = ["TrainingResult", "train"]


@dataclass(frozen=True, eq=False)
class TrainingResult:
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


def train(
    trajectories,
    config: FeatureConfig,
    references=None,
) -> TrainingResult:
    """Fit an operator to the given trajectories.

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
            stacklevel=2,
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

    seeds = np.stack([trajectory.states[: config.delays] for trajectory in trajectories])
    steps = max(trajectory.num_samples for trajectory in trajectories) - config.delays
    states, _ = iterate_batch(seeds, steps, monomial_basis(config), operator.matrix)
    scores = []
    for row, trajectory, reference in zip(states, trajectories, references or trajectories):
        predicted = Trajectory(row[: trajectory.num_samples], operator.dt, trajectory.t0)
        try:
            scores.append(rrmse(predicted, reference, config.delays).mean_rrmse)
        except UndefinedScoreError:
            scores.append(float("nan"))

    summary = TrainingSummary(
        num_trajectories=len(trajectories),
        total_columns=pair.num_columns,
        residual_frobenius=report.residual_frobenius,
        per_trajectory_rrmse=tuple(scores),
        effective_rank=report.effective_rank,
        underdetermined=config.num_features > pair.num_columns,
        origin_multiplier=_origin_multiplier(operator),
    )
    operator = replace(operator, training_summary=summary)
    return TrainingResult(operator=operator, mean_rrmse=float(np.mean(scores)))
