"""Operator identification from trajectories."""

import numpy as np
import pytest

import oracles
from nldm import (
    FeatureConfig,
    IntegratorSettings,
    Trajectory,
    add_noise,
    integrate,
    make_system,
    predict,
    rrmse,
    train,
)


def test_geometric_series_recovers_the_ratio(make_series):
    result = train([make_series([8, 4, 2, 1])], FeatureConfig(1, 1, 1))
    np.testing.assert_allclose(result.operator.matrix, [[0.5]], atol=1e-12)
    assert result.mean_rrmse < 1e-12
    assert result.operator.training_summary.effective_rank == 1


def test_linear_oscillator_recovers_matrix_exponential():
    system = make_system("lho")
    traj = integrate(system, (1.0, 0.5), (0.0, 4.995), 1000)
    result = train([traj], FeatureConfig(2, 1, 1))
    expected = oracles.taylor_expm(
        np.array([[0.0, 1.0], [-1.0, -1.0]]) * traj.dt
    )
    assert np.linalg.norm(result.operator.matrix - expected, "fro") < 1e-6
    # The eigenvalues of exp(A dt) have modulus exp(-delta dt / 2).
    multiplier = np.exp(-system.params["delta"] * traj.dt / 2.0)
    assert abs(result.operator.training_summary.origin_multiplier - multiplier) < 1e-9


def test_series_without_signal_are_refused(make_series):
    # Every feature of a series resting at the origin is zero, so the
    # solver's zero solution would be an operator fitted to nothing.
    with pytest.raises(ValueError, match="effective rank 0"):
        train([make_series([0.0, 0.0, 0.0, 0.0])], FeatureConfig(1, 1, 1))


def test_training_summary_bookkeeping(make_series):
    config = FeatureConfig(1, 2, 2)
    result = train(
        [make_series([1, 2, 3, 4, 5]), make_series([2, 3, 4, 5, 6, 7])], config
    )
    summary = result.operator.training_summary
    assert summary.num_trajectories == 2
    assert summary.total_columns == 3 + 4
    assert not summary.underdetermined


def test_underdetermined_training_warns(make_series):
    # 3 samples with d=1, o=3 give 2 columns for 3 features.
    config = FeatureConfig(1, 1, 3)
    with pytest.warns(UserWarning, match="underdetermined"):
        result = train([make_series([1.0, 1.4, 2.1])], config)
    assert result.operator.training_summary.underdetermined


def test_duplicate_trajectories_leave_operator_unchanged(make_series):
    config = FeatureConfig(1, 1, 2)
    traj = make_series([1.0, 1.9, 3.7, 7.1, 13.9])
    single = train([traj], config)
    doubled = train([traj, traj], config)
    np.testing.assert_allclose(
        doubled.operator.matrix, single.operator.matrix, atol=1e-10
    )


def test_trajectory_order_does_not_matter(make_series):
    config = FeatureConfig(1, 1, 2)
    first = make_series([1.0, 2.0, 4.0, 8.0])
    second = make_series([1.0, 0.5, 0.3, 0.2])
    forward = train([first, second], config)
    backward = train([second, first], config)
    np.testing.assert_allclose(
        forward.operator.matrix, backward.operator.matrix, atol=1e-10
    )
    assert backward.operator.training_summary.per_trajectory_rrmse == pytest.approx(
        forward.operator.training_summary.per_trajectory_rrmse[::-1]
    )


def test_reported_scores_match_independent_re_prediction():
    system = make_system("two_attractor")
    settings = IntegratorSettings(rel_tol=1e-10, abs_tol=1e-12)
    trajs = [
        integrate(system, ic, (0.0, 5.0), 400, settings=settings)
        for ic in [(-0.5, 1.0), (-1.5, -2.0)]
    ]
    config = FeatureConfig(2, 2, 3)
    result = train(trajs, config)
    scores = result.operator.training_summary.per_trajectory_rrmse
    for traj, reported in zip(trajs, scores):
        prediction = predict(
            result.operator,
            traj.states[: config.delays],
            traj.num_samples - config.delays,
            t0=traj.t0,
        )
        score = rrmse(prediction.trajectory, traj, skip=config.delays)
        assert score.mean_rrmse == reported
    np.testing.assert_allclose(result.mean_rrmse, np.mean(scores))


def test_clean_references_score_against_the_truth():
    system = make_system("lho")
    clean = integrate(system, (2.0, 0.0), (0.0, 9.99), 1000)
    noisy = add_noise(clean, 0.1, seed=77)
    config = FeatureConfig(2, 2, 1)
    with_refs = train([noisy], config, references=[clean])
    without = train([noisy], config)
    # Same data, same operator; only the scoring target changes.
    np.testing.assert_array_equal(
        with_refs.operator.matrix, without.operator.matrix
    )
    assert with_refs.mean_rrmse != without.mean_rrmse


def test_reference_validation(make_series):
    config = FeatureConfig(1, 1, 1)
    traj = make_series([1, 2, 4])
    with pytest.raises(ValueError):
        train([traj], config, references=[traj, traj])
    short = make_series([1, 2])
    with pytest.raises(ValueError):
        train([traj], config, references=[short])


def test_mean_rrmse_propagates_nan(make_series):
    # The single fitted ratio is pulled to ~2 by the dominant growing
    # series, so re-predicting the decaying one doubles from 16 past the
    # divergence threshold and its score must surface as NaN.
    config = FeatureConfig(1, 1, 1)
    growth = make_series(list(2.0 ** np.arange(20)))
    decay = make_series(list(16.0 * 0.5 ** np.arange(20)))
    result = train([growth, decay], config)
    scores = result.operator.training_summary.per_trajectory_rrmse
    assert scores[0] < 1e-6
    assert np.isnan(scores[1])
    assert np.isnan(result.mean_rrmse)


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 2, 2)])
def test_batched_scores_equal_single_series_forecasts_bitwise(make_series, shape):
    # Unequal lengths, so the batch pads the shorter rows; under either
    # shape exactly one series is driven past the divergence threshold.
    config = FeatureConfig(*shape)
    trajs = [
        make_series(list(2.0 ** np.arange(20))),
        make_series(list(16.0 * 0.5 ** np.arange(18))),
        make_series(list(1.0 + 0.3 * np.arange(7))),
    ]
    result = train(trajs, config)
    scores = result.operator.training_summary.per_trajectory_rrmse
    assert np.isnan(scores).sum() == 1
    for traj, reported in zip(trajs, scores):
        prediction = predict(
            result.operator,
            traj.states[: config.delays],
            traj.num_samples - config.delays,
        )
        alone = rrmse(prediction.trajectory, traj, skip=config.delays).mean_rrmse
        assert np.float64(alone).tobytes() == np.float64(reported).tobytes()


def test_features_that_overflow_are_refused_by_name(make_series):
    # 1e200 squared is past the largest float: the lift holds inf, and
    # the fit names it instead of raising numpy's overflow warning.
    series = make_series([1.0, 1e200, 2.0, 3.0])
    with pytest.raises(ValueError, match="features contain non-finite entries"):
        train([series], FeatureConfig(num_states=1, delays=1, degree=2))
