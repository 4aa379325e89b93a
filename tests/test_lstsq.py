"""Minimum-norm least-squares solver against independent oracles."""

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

import oracles
from nldm import DimensionError, solve_min_frobenius


def random_instance(rng, rank_deficient=False):
    rows = rng.integers(1, 7)
    cols = rng.integers(1, 7)
    outs = rng.integers(1, 7)
    features = rng.normal(size=(rows, cols))
    if rank_deficient and rows >= 2:
        features[-1] = features[0]  # force a repeated row
    targets = rng.normal(size=(outs, cols))
    return features, targets


# --- worked examples -------------------------------------------------------

def test_unique_solution_example():
    features = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
    targets = np.array([[2.0, 3.0, 4.0]])
    report = solve_min_frobenius(features, targets)
    np.testing.assert_allclose(report.solution, [[1.0, 1.0]], atol=1e-12)
    assert report.residual_frobenius < 1e-12
    assert report.effective_rank == 2
    assert report.truncated_singular_values == 0


def test_rank_deficient_min_norm_tie_break():
    features = np.array([[1.0, 1.0], [1.0, 1.0]])
    targets = np.array([[2.0, 2.0]])
    report = solve_min_frobenius(features, targets)
    # Any [a, 2-a] fits; the minimum-norm representative is [1, 1].
    np.testing.assert_allclose(report.solution, [[1.0, 1.0]], atol=1e-12)
    assert report.effective_rank == 1
    assert report.truncated_singular_values == 1


def test_identity_features_copy_targets():
    targets = np.array([[3.0, -1.0], [0.5, 2.0]])
    report = solve_min_frobenius(np.eye(2), targets)
    np.testing.assert_allclose(report.solution, targets, atol=1e-12)


def test_zero_features_give_zero_solution():
    features = np.zeros((3, 4))
    targets = np.arange(8.0).reshape(2, 4)
    report = solve_min_frobenius(features, targets)
    assert not report.solution.any()
    np.testing.assert_allclose(
        report.residual_frobenius, np.linalg.norm(targets, "fro")
    )
    assert report.effective_rank == 0


# --- oracle equivalence ----------------------------------------------------

def test_matches_svd_oracle_on_random_instances():
    rng = np.random.default_rng(7)
    for trial in range(120):
        features, targets = random_instance(rng, rank_deficient=trial % 3 == 0)
        report = solve_min_frobenius(features, targets)
        expected = oracles.svd_min_norm_solution(features, targets)
        scale = max(1.0, np.linalg.norm(expected))
        assert np.linalg.norm(report.solution - expected) <= 1e-8 * scale


def test_matches_normal_equations_when_overdetermined():
    rng = np.random.default_rng(11)
    features = rng.normal(size=(3, 40))
    targets = rng.normal(size=(2, 40))
    report = solve_min_frobenius(features, targets)
    expected = oracles.normal_equation_solution(features, targets)
    np.testing.assert_allclose(report.solution, expected, atol=1e-10)


def test_exact_recovery_of_in_span_targets():
    rng = np.random.default_rng(3)
    for _ in range(30):
        features, _ = random_instance(rng)
        truth = rng.normal(size=(2, features.shape[0]))
        targets = truth @ features
        report = solve_min_frobenius(features, targets)
        limit = 1e-8 * max(1.0, np.linalg.norm(targets, "fro"))
        assert report.residual_frobenius <= limit


# --- optimality and equivariance ------------------------------------------

def test_no_perturbation_improves_the_residual():
    rng = np.random.default_rng(19)
    for _ in range(40):
        features, targets = random_instance(rng, rank_deficient=True)
        report = solve_min_frobenius(features, targets)
        base = np.linalg.norm(report.solution @ features - targets, "fro")
        for _ in range(25):
            step = 1e-3 * rng.normal(size=report.solution.shape)
            moved = np.linalg.norm(
                (report.solution + step) @ features - targets, "fro"
            )
            assert moved >= base - 1e-12


@given(scale=st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=30)
def test_feature_scaling_equivariance(scale):
    rng = np.random.default_rng(23)
    features = rng.normal(size=(4, 9))
    targets = rng.normal(size=(2, 9))
    base = solve_min_frobenius(features, targets)
    scaled = solve_min_frobenius(scale * features, targets)
    np.testing.assert_allclose(
        scaled.solution, base.solution / scale, rtol=1e-9, atol=1e-12
    )


def test_residual_field_matches_recomputation():
    rng = np.random.default_rng(29)
    features = rng.normal(size=(5, 3))  # underdetermined: more rows than columns
    targets = rng.normal(size=(2, 3))
    report = solve_min_frobenius(features, targets)
    np.testing.assert_allclose(
        report.residual_frobenius,
        np.linalg.norm(report.solution @ features - targets, "fro"),
        atol=1e-12,
    )


# --- validation ------------------------------------------------------------

def test_input_validation():
    with pytest.raises(DimensionError):
        solve_min_frobenius(np.ones(3), np.ones((1, 3)))
    with pytest.raises(DimensionError):
        solve_min_frobenius(np.ones((2, 3)), np.ones((1, 4)))
    with pytest.raises(DimensionError):
        solve_min_frobenius(np.ones((0, 3)), np.ones((1, 3)))
    with pytest.raises(ValueError):
        solve_min_frobenius(np.array([[np.nan, 1.0]]), np.ones((1, 2)))
    with pytest.raises(ValueError):
        solve_min_frobenius(np.ones((1, 2)), np.array([[np.inf, 1.0]]))


def test_residual_whose_squares_overflow_is_inf():
    # One constant feature cannot fit +-1e160: the residual is the
    # targets, whose squares overflow.
    report = solve_min_frobenius(np.ones((1, 2)), np.array([[1e160, -1e160]]))
    assert abs(report.solution[0, 0]) < 1e-10 * 1e160  # zero up to rounding
    assert report.residual_frobenius == np.inf
