"""Relative RMSE scoring."""

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

import oracles
from nldm import DimensionError, Trajectory, UndefinedScoreError, rrmse


def pair(pred, ref, dt=0.1):
    return (
        Trajectory(np.asarray(pred, dtype=float), dt=dt),
        Trajectory(np.asarray(ref, dtype=float), dt=dt),
    )


def test_constant_offset_example():
    ref = np.array([[0.0], [1.0]] * 4)
    predicted, reference = pair(ref + 0.1, ref)
    score = rrmse(predicted, reference, skip=0)
    # Error RMS is 0.1 against a population std of 0.5.
    np.testing.assert_allclose(score.per_state_rrmse, [0.2])
    np.testing.assert_allclose(score.mean_rrmse, 0.2)
    assert score.compared_points == 8


def test_perfect_prediction_scores_zero():
    ref = np.linspace(0, 1, 7).reshape(-1, 1)
    predicted, reference = pair(ref, ref)
    assert rrmse(predicted, reference, skip=0).mean_rrmse == 0.0


@settings(max_examples=40)
@given(data=st.data())
def test_matches_loop_oracle(data):
    rows = data.draw(st.integers(3, 10))
    states = data.draw(st.integers(1, 3))
    skip = data.draw(st.integers(0, rows - 2))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    ref = rng.normal(size=(rows, states))
    prediction = ref + rng.normal(size=(rows, states))
    predicted, reference = pair(prediction, ref)
    score = rrmse(predicted, reference, skip=skip)
    expected = oracles.loop_rrmse(prediction, ref, skip)
    np.testing.assert_allclose(score.per_state_rrmse, expected, rtol=1e-10)
    np.testing.assert_allclose(score.mean_rrmse, expected.mean(), rtol=1e-10)


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=30)
def test_scale_invariance(scale):
    rng = np.random.default_rng(5)
    ref = rng.normal(size=(12, 2))
    prediction = ref + rng.normal(size=(12, 2))
    base = rrmse(*pair(prediction, ref), skip=1)
    scaled = rrmse(*pair(scale * prediction, scale * ref), skip=1)
    np.testing.assert_allclose(
        scaled.per_state_rrmse, base.per_state_rrmse, rtol=1e-9
    )


def test_translation_invariance():
    rng = np.random.default_rng(6)
    ref = rng.normal(size=(12, 2))
    prediction = ref + rng.normal(size=(12, 2))
    base = rrmse(*pair(prediction, ref), skip=0)
    shifted = rrmse(*pair(prediction + 7.5, ref + 7.5), skip=0)
    np.testing.assert_allclose(
        shifted.per_state_rrmse, base.per_state_rrmse, rtol=1e-9
    )


def test_doubling_one_states_error_doubles_its_score():
    rng = np.random.default_rng(8)
    ref = rng.normal(size=(20, 2))
    err = rng.normal(size=(20, 2))
    base = rrmse(*pair(ref + err, ref), skip=0)
    boosted_err = err.copy()
    boosted_err[:, 1] *= 2.0
    boosted = rrmse(*pair(ref + boosted_err, ref), skip=0)
    np.testing.assert_allclose(
        boosted.per_state_rrmse[0], base.per_state_rrmse[0], rtol=1e-12
    )
    np.testing.assert_allclose(
        boosted.per_state_rrmse[1], 2.0 * base.per_state_rrmse[1], rtol=1e-12
    )


def test_states_whose_squares_overflow_keep_finite_scores():
    # State 0 near 1e160 has squares past the float range, in its spread
    # and in its error; it is scored as if scaled down, without a
    # warning, and the ordinary state 1 keeps its plain score bit for bit.
    rng = np.random.default_rng(6)
    ref = rng.normal(size=(12, 2))
    prediction = ref + rng.normal(size=(12, 2))
    base = rrmse(*pair(prediction, ref), skip=1)
    scale = np.array([1e160, 1.0])
    score = rrmse(*pair(scale * prediction, scale * ref), skip=1)
    assert np.isfinite(score.per_state_rrmse).all()
    np.testing.assert_allclose(score.per_state_rrmse[0], base.per_state_rrmse[0], rtol=1e-12)
    assert score.per_state_rrmse[1] == base.per_state_rrmse[1]


def test_skip_ignores_earlier_rows():
    rng = np.random.default_rng(9)
    ref = rng.normal(size=(10, 1))
    prediction = ref.copy()
    prediction[:3] = 1e6  # garbage before the compared window
    score = rrmse(*pair(prediction, ref), skip=3)
    assert score.mean_rrmse == 0.0
    assert score.compared_points == 7


def test_nan_prediction_propagates():
    ref = np.linspace(0, 1, 6).reshape(-1, 1)
    prediction = ref.copy()
    prediction[4, 0] = np.nan
    score = rrmse(*pair(prediction, ref), skip=0)
    assert np.isnan(score.mean_rrmse)
    assert np.isnan(score.per_state_rrmse[0])


def test_constant_reference_is_undefined():
    ref = np.ones((6, 2))
    ref[:, 0] = np.linspace(0, 1, 6)
    with pytest.raises(UndefinedScoreError, match="state 1"):
        rrmse(*pair(ref, ref), skip=0)


def test_nonfinite_reference_is_rejected():
    ref = np.linspace(0, 1, 6).reshape(-1, 1)
    bad = ref.copy()
    bad[2, 0] = np.nan
    with pytest.raises(ValueError, match="reference"):
        rrmse(*pair(ref, bad), skip=0)


def test_shape_and_skip_validation():
    ref = np.linspace(0, 1, 6).reshape(-1, 1)
    predicted, reference = pair(ref, ref)
    longer = Trajectory(np.vstack([ref, [[2.0]]]), dt=0.1)
    with pytest.raises(DimensionError):
        rrmse(longer, reference, skip=0)
    other_dt = Trajectory(ref, dt=0.2)
    with pytest.raises(DimensionError):
        rrmse(other_dt, reference, skip=0)
    wide = Trajectory(np.hstack([ref, ref]), dt=0.1)
    with pytest.raises(DimensionError):
        rrmse(wide, reference, skip=0)
    with pytest.raises(DimensionError):
        rrmse(predicted, reference, skip=6)
    with pytest.raises(DimensionError):
        rrmse(predicted, reference, skip=-1)
