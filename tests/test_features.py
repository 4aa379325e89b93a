"""Monomial enumeration, lifting, delay stacking, snapshot assembly."""

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

import oracles
from nldm import (
    DimensionError,
    FeatureConfig,
    Trajectory,
    build_snapshot_pair,
    monomial_basis,
)
from nldm.features import MonomialBasis, _graded_exponents


finite_points = st.lists(
    st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=1, max_size=6
)


# --- exponent enumeration --------------------------------------------------

def test_exponents_match_enumeration_oracle():
    for num_vars in range(1, 7):
        for degree in range(1, 5):
            rows = _graded_exponents(num_vars, degree)
            found = {tuple(int(e) for e in row) for row in rows}
            assert found == oracles.enumerate_monomial_exponents(num_vars, degree)
            assert len(found) == len(rows)  # no duplicates


def test_exponents_are_graded():
    rows = _graded_exponents(4, 3)
    degrees = rows.sum(axis=1)
    assert (np.diff(degrees) >= 0).all()
    assert degrees[0] == 1 and degrees[-1] == 3


def test_linear_block_comes_first_in_variable_order():
    rows = _graded_exponents(3, 2)
    np.testing.assert_array_equal(rows[:3], np.eye(3, dtype=rows.dtype))


# --- lift ------------------------------------------------------------------

def lift(stacked, config):
    """The lift of one stacked vector, through the batch evaluator."""
    return monomial_basis(config).evaluate_batch(np.asarray(stacked, dtype=float)[None])[0]


def test_lift_worked_example():
    config = FeatureConfig(num_states=2, delays=2, degree=2)
    fea = lift([1.0, 2.0, 3.0, 4.0], config)
    expected = [1, 2, 3, 4, 1, 2, 3, 4, 4, 6, 8, 9, 12, 16]
    np.testing.assert_allclose(fea, expected)


def test_lift_degree_one_is_identity():
    config = FeatureConfig(num_states=2, delays=2, degree=1)
    stacked = np.array([5.0, -1.0, 2.0, 0.5])
    np.testing.assert_array_equal(lift(stacked, config), stacked)


def test_lift_zero_input_gives_zero_vector():
    config = FeatureConfig(num_states=2, delays=2, degree=3)
    fea = lift(np.zeros(4), config)
    assert fea.shape == (config.num_features,)
    assert not fea.any()


def test_lift_rejects_wrong_length():
    config = FeatureConfig(num_states=2, delays=2, degree=2)
    with pytest.raises(DimensionError):
        lift(np.ones(3), config)


@given(point=finite_points, degree=st.integers(1, 4))
def test_lift_matches_monomial_oracle(point, degree):
    point = np.asarray(point)
    config = FeatureConfig(num_states=len(point), delays=1, degree=degree)
    basis = monomial_basis(config)
    fea = lift(point, config)
    for j, exps in enumerate(basis.exponents):
        expected = oracles.eval_monomial(point, tuple(int(e) for e in exps))
        np.testing.assert_allclose(fea[j], expected, rtol=1e-12, atol=1e-12)


@given(
    points=st.lists(
        st.tuples(*(st.floats(-2, 2) for _ in range(3))), min_size=1, max_size=8
    )
)
def test_batch_evaluation_matches_single_points(points):
    config = FeatureConfig(num_states=3, delays=1, degree=3)
    basis = monomial_basis(config)
    block = np.asarray(points, dtype=float)
    batch = basis.evaluate_batch(block)
    for i, row in enumerate(block):
        np.testing.assert_array_equal(batch[i], lift(row, config))


# --- MonomialBasis construction -------------------------------------------

def test_from_exponents_accepts_reordered_degree_blocks():
    from conftest import graded_permutation

    reference = monomial_basis(FeatureConfig(2, 1, 3))
    perm = graded_permutation(reference.exponents, np.random.default_rng(0))
    shuffled = MonomialBasis.from_exponents(reference.exponents[perm])
    point = np.array([[1.5, -0.5]])
    np.testing.assert_allclose(
        shuffled.evaluate_batch(point), reference.evaluate_batch(point)[:, perm], rtol=1e-12
    )


def test_from_exponents_rejects_parent_after_child():
    # The square of a variable cannot be listed before the variable itself.
    with pytest.raises(ValueError, match="divisor"):
        MonomialBasis.from_exponents(np.array([[0, 2], [0, 1]]))


def test_from_exponents_rejects_rows_not_sorted_by_degree():
    # Every divisor comes first, but the variable x1 follows the square
    # x0**2: the kernel forms each degree's rows as one slice.
    with pytest.raises(ValueError, match="monomial 2 of degree 1 follows one of degree 2"):
        MonomialBasis.from_exponents(np.array([[1, 0], [2, 0], [0, 1]]))


def test_from_exponents_rejects_duplicates_and_orphans():
    with pytest.raises(ValueError):
        MonomialBasis.from_exponents(np.array([[1, 0], [1, 0]]))
    # A degree-3 row with no earlier divisor row cannot be built incrementally.
    with pytest.raises(ValueError):
        MonomialBasis.from_exponents(np.array([[3, 0]]))


# --- delayed_state ---------------------------------------------------------
# At degree 1 the features are the delayed stack itself: column k - delays
# holds states k-1, ..., k-delays, newest first.

def delayed_states(states, delays):
    config = FeatureConfig(num_states=np.shape(states)[1], delays=delays, degree=1)
    return build_snapshot_pair([Trajectory(np.asarray(states, dtype=float), dt=0.1)], config)


def test_delayed_state_worked_examples():
    pair = delayed_states([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], delays=2)
    np.testing.assert_array_equal(pair.features.T, [[3, 4, 1, 2]])
    np.testing.assert_array_equal(pair.targets.T, [[5, 6]])

    scalar = delayed_states(np.arange(5.0).reshape(-1, 1), delays=3)
    np.testing.assert_array_equal(scalar.features[:, -1], [3, 2, 1])


def test_delayed_state_needs_enough_history():
    with pytest.raises(DimensionError, match="need at least 3"):
        delayed_states([[7.0], [8.0]], delays=2)
    with pytest.raises(DimensionError, match="need at least 4"):
        delayed_states([[7.0], [8.0], [9.0]], delays=3)
    with pytest.raises(ValueError):
        delayed_states([[7.0], [8.0]], delays=0)


def test_delayed_state_is_newest_first():
    states = np.arange(10.0).reshape(-1, 2)
    pair = delayed_states(states, delays=3)
    np.testing.assert_array_equal(pair.features[:, 1], [6, 7, 4, 5, 2, 3])
    for column, k in enumerate(range(3, 5)):
        np.testing.assert_array_equal(pair.features[:, column], states[k - 3:k][::-1].ravel())


# --- build_snapshot_pair ---------------------------------------------------

def test_snapshot_pair_worked_example(make_series):
    config = FeatureConfig(num_states=1, delays=1, degree=1)
    pair = build_snapshot_pair(
        [make_series([1, 2, 4]), make_series([1, 3, 9])], config
    )
    np.testing.assert_array_equal(pair.targets, [[2, 4, 3, 9]])
    np.testing.assert_array_equal(pair.features, [[1, 2, 1, 3]])
    assert pair.num_columns == 4


def test_snapshot_pair_column_count_per_trajectory(make_series):
    config = FeatureConfig(num_states=1, delays=2, degree=2)
    pair = build_snapshot_pair([make_series([1, 2, 3, 4, 5])], config)
    # K=5 samples with d=2 leave columns for k = 2, 3, 4.
    assert pair.num_columns == 3
    assert pair.features.shape == (config.num_features, 3)
    assert pair.targets.shape == (1, 3)


def test_snapshot_pair_columns_match_lift(make_series):
    config = FeatureConfig(num_states=1, delays=2, degree=2)
    traj = make_series([1.0, 2.0, 3.0, 5.0])
    pair = build_snapshot_pair([traj], config)
    for offset, k in enumerate(range(2, 4)):
        expected = lift(traj.states[k - 2:k][::-1].ravel(), config)
        np.testing.assert_array_equal(pair.features[:, offset], expected)
        np.testing.assert_array_equal(pair.targets[:, offset], traj.states[k])


def test_snapshot_pair_rejects_mixed_metadata(make_series):
    config = FeatureConfig(num_states=1, delays=1, degree=1)
    with pytest.raises(DimensionError):
        build_snapshot_pair(
            [make_series([1, 2, 3]), make_series([1, 2, 3], dt=0.2)], config
        )
    two_state = Trajectory(np.ones((3, 2)), dt=0.1)
    with pytest.raises(DimensionError):
        build_snapshot_pair([make_series([1, 2, 3]), two_state], config)
    with pytest.raises(ValueError):
        build_snapshot_pair([], config)


def test_snapshot_pair_rejects_short_trajectory_by_index(make_series):
    config = FeatureConfig(num_states=1, delays=3, degree=1)
    good = make_series([1, 2, 3, 4, 5])
    short = make_series([1, 2, 3])
    with pytest.raises(DimensionError, match="1"):
        build_snapshot_pair([good, short], config)


@settings(max_examples=25)
@given(data=st.data())
def test_snapshot_pair_stacks_trajectories_in_order(data):
    lengths = data.draw(st.lists(st.integers(3, 6), min_size=1, max_size=4))
    config = FeatureConfig(num_states=1, delays=1, degree=2)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    trajs = [
        Trajectory(rng.normal(size=(n, 1)), dt=0.1) for n in lengths
    ]
    pair = build_snapshot_pair(trajs, config)
    assert pair.num_columns == sum(n - 1 for n in lengths)
    start = 0
    for traj in trajs:
        cols = traj.num_samples - 1
        np.testing.assert_array_equal(
            pair.targets[:, start : start + cols], traj.states[1:].T
        )
        start += cols
