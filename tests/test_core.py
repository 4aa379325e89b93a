"""Container types, the feature-count formula and the package exports."""

import dataclasses
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, strategies as st

import nldm
import oracles
from nldm import (
    CapacityError,
    DimensionError,
    FeatureConfig,
    LearnedOperator,
    Provenance,
    Trajectory,
    TrainingSummary,
    feature_dim,
)
from nldm import core
from nldm.core import _ordered_sum, _weighted_sum


# --- feature_dim -----------------------------------------------------------

def test_feature_dim_known_values():
    assert feature_dim(2, 2, 2) == 14
    assert feature_dim(3, 1, 1) == 3
    assert feature_dim(2, 2, 3) == 34
    assert feature_dim(1, 1, 1) == 1


def test_feature_dim_matches_enumeration_oracle():
    for num_states in range(1, 7):
        for delays in range(1, 7):
            if num_states * delays > 6:
                continue
            for degree in range(1, 5):
                expected = oracles.count_monomials(num_states * delays, degree)
                assert feature_dim(num_states, delays, degree) == expected


@given(
    num_states=st.integers(1, 4),
    delays=st.integers(1, 4),
    degree=st.integers(1, 4),
)
def test_feature_dim_closed_form(num_states, delays, degree):
    dim = num_states * delays
    assert feature_dim(num_states, delays, degree) == math.comb(dim + degree, degree) - 1


@pytest.mark.parametrize("bad", [0, -1, 1.5, "2"])
def test_feature_dim_rejects_bad_arguments(bad):
    with pytest.raises(ValueError):
        feature_dim(bad, 1, 1)
    with pytest.raises(ValueError):
        feature_dim(1, bad, 1)
    with pytest.raises(ValueError):
        feature_dim(1, 1, bad)


def test_feature_dim_capacity_guard():
    # comb(206, 6) - 1 is around 1e11, far past any allocatable matrix.
    with pytest.raises(CapacityError):
        feature_dim(50, 4, 6)


def test_feature_config_properties():
    config = FeatureConfig(num_states=2, delays=2, degree=2)
    assert config.num_features == 14
    assert config.stacked_dim == 4
    with pytest.raises(ValueError):
        FeatureConfig(num_states=0, delays=1, degree=1)


# --- Trajectory ------------------------------------------------------------

def test_trajectory_basic_metadata():
    states = np.arange(8.0).reshape(4, 2)
    traj = Trajectory(states, dt=0.5, t0=1.0)
    assert traj.num_samples == 4
    assert traj.num_states == 2
    np.testing.assert_allclose(traj.times, [1.0, 1.5, 2.0, 2.5])
    assert traj.provenance == Provenance.clean()


def test_trajectory_copies_and_freezes_states():
    source = np.ones((3, 1))
    traj = Trajectory(source, dt=1.0)
    source[0, 0] = 99.0
    assert traj.states[0, 0] == 1.0
    with pytest.raises(ValueError):
        traj.states[0, 0] = 5.0


def test_trajectory_requires_two_samples_and_2d():
    with pytest.raises(DimensionError):
        Trajectory(np.ones((1, 2)), dt=0.1)
    with pytest.raises(DimensionError):
        Trajectory(np.ones(5), dt=0.1)
    with pytest.raises(DimensionError):
        Trajectory(np.ones((3, 0)), dt=0.1)
    with pytest.raises(DimensionError):
        Trajectory(np.ones((3, 1)), dt=0.0)


def test_trajectory_allows_nan_padding():
    # Diverged predictions carry trailing NaN rows; the container keeps them.
    states = np.array([[1.0], [np.nan]])
    assert np.isnan(Trajectory(states, dt=0.1).states[1, 0])


def test_trajectory_is_immutable():
    traj = Trajectory(np.ones((2, 1)), dt=0.1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        traj.dt = 0.2


# --- Provenance ------------------------------------------------------------

def test_provenance_kinds():
    clean = Provenance.clean()
    assert clean.kind == "clean" and clean.sigma_pct is None
    noisy = Provenance.noisy(0.1, 42)
    assert (noisy.kind, noisy.sigma_pct, noisy.seed) == ("noisy", 0.1, 42)
    with pytest.raises(ValueError):
        Provenance("weird")
    with pytest.raises(ValueError):
        Provenance("noisy")  # missing sigma_pct


# --- LearnedOperator -------------------------------------------------------

def test_operator_shape_must_match_config():
    config = FeatureConfig(1, 1, 1)
    operator = LearnedOperator(np.array([[0.5]]), config, dt=0.1)
    assert operator.matrix.shape == (1, 1)
    with pytest.raises(DimensionError):
        LearnedOperator(np.ones((1, 2)), config, dt=0.1)
    with pytest.raises(ValueError):
        LearnedOperator(np.array([[np.inf]]), config, dt=0.1)
    with pytest.raises(DimensionError):
        LearnedOperator(np.array([[0.5]]), config, dt=-0.1)


def test_operator_matrix_is_frozen_copy():
    config = FeatureConfig(1, 1, 1)
    source = np.array([[0.5]])
    operator = LearnedOperator(source, config, dt=0.1)
    source[0, 0] = 2.0
    assert operator.matrix[0, 0] == 0.5
    with pytest.raises(ValueError):
        operator.matrix[0, 0] = 3.0


def test_training_summary_round_trip_fields():
    summary = TrainingSummary(
        num_trajectories=2,
        total_columns=10,
        residual_frobenius=0.5,
        per_trajectory_rrmse=(0.1, 0.2),
        effective_rank=3,
        underdetermined=False,
        origin_multiplier=0.9,
    )
    assert summary.num_trajectories == 2
    assert summary.per_trajectory_rrmse == (0.1, 0.2)
    assert summary.origin_multiplier == 0.9


# --- package exports -------------------------------------------------------

def test_package_exports_are_exported_by_their_modules():
    # Each name in nldm.__all__ must also be in the __all__ of the module
    # the package imports it from.
    home = {name: importlib.import_module(f"nldm.{module}")
            for name, module in nldm._HOME.items()}
    for name in set(nldm.__all__) - {"__version__"}:
        assert name in home[name].__all__, f"{home[name].__name__} does not export {name}"


def _fresh(code):
    """``code``'s stdout, run in a fresh interpreter on this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(nldm.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True, timeout=60)
    return result.stdout


def test_package_import_loads_only_the_predict_module():
    # ``predict`` is bound at import (it names a module and its function);
    # nldm.predict imports core and features, and every other name waits
    # for its first use.
    loaded = _fresh("import sys, nldm; print(*sorted(m for m in sys.modules "
                    "if m.split('.')[0] == 'nldm'))")
    assert loaded.split() == ["nldm", "nldm.core", "nldm.features", "nldm.predict"]


@pytest.mark.parametrize("first", [
    "nldm", "nldm.basin", "nldm.cli", "nldm.config", "nldm.core", "nldm.features",
    "nldm.identify", "nldm.io", "nldm.lstsq", "nldm.metrics", "nldm.odes", "nldm.predict",
])
def test_package_names_are_their_home_modules_objects_whatever_is_imported_first(first):
    # A first import of a submodule binds its name in the package, so a
    # public name that is also a submodule's must still read the object.
    code = (f"import {first}, importlib, nldm\n"
            "for name in nldm.__all__[1:]:\n"
            "    home = importlib.import_module(f'nldm.{nldm._HOME[name]}')\n"
            "    assert name in home.__all__, name\n"
            "    assert getattr(nldm, name) is getattr(home, name), name\n"
            "print(nldm.predict is importlib.import_module('nldm.predict').predict)")
    assert _fresh(code) == "True\n"


def test_package_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'nldm' has no attribute 'no_such_name'$"):
        nldm.no_such_name
    with pytest.raises(ImportError):
        from nldm import no_such_name  # noqa: F401


def test_package_dir_lists_every_public_name():
    assert set(nldm.__all__) <= set(dir(nldm))


# --- ordered sums ----------------------------------------------------------

def _loop_sum(terms):
    total = np.zeros(terms.shape[1:])
    for term in terms:
        total += term
    return total


@pytest.mark.parametrize("plane", [(1,), (1, 1), (2, 1), (1, 2), (3, 5)])
def test_ordered_sum_adds_in_index_order_from_positive_zero(plane):
    # Magnitudes spread over 16 decades make every summation order round
    # differently; all-(-0.0) terms sum to +0.0, as from a +0.0 start.
    rng = np.random.default_rng(11)
    for count in range(1, 131):
        shape = (count,) + plane
        drawn = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        for terms in (drawn, np.full(shape, -0.0)):
            expected = _loop_sum(terms).tobytes()
            assert _ordered_sum(terms).tobytes() == expected, shape
            out = np.full(plane, np.nan)
            assert _ordered_sum(terms, out=out) is out
            assert out.tobytes() == expected, shape


# --- the weighted sum ------------------------------------------------------

def loop_sum(weights, lift):
    """The sum over the features as the ``+=`` loop from +0.0 forms it."""
    total = np.zeros((len(weights), lift.shape[1]))
    for f in range(len(lift)):
        total += weights[:, f:f + 1] * lift[f]
    return total


SUM_ROWS = [2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 33, 100, 255, 256, 257, 511, 512, 513, 1000,
            4095, 4096, 4097, 8191, 8192, 8193, 10_000]
# The forecasting kernel's feature counts, and the integrator's 1..7
# stages, summed into 1 (a stage, the update, the error) or 4 outputs
# (the dense-output coefficients).
SUM_FEATURES = (1, 2, 3, 4, 5, 6, 7, 9, 17, 34, 65, 120)


@pytest.mark.parametrize("einsum", [True, False], ids=["einsum", "products"])
def test_weighted_sum_is_the_loop_of_adds_from_positive_zero(einsum, monkeypatch):
    # Terms spread over 2**-40 .. 2**40 so that any other grouping or a
    # fused multiply-add changes the bits.  The sum goes to a new array,
    # as the integrator's do, or into ``out``, as the kernel's do:
    # contiguous, or every third column of a wider array.  The products
    # path, which one column always takes, runs on fewer shapes: it
    # writes all its products.
    if not einsum:
        monkeypatch.setattr(core, "_EINSUM_ADDS_IN_ORDER", False)
    rng = np.random.default_rng(17)
    shapes = 0
    for num_features in SUM_FEATURES:
        for num_states in (1, 2, 3, 4):
            for rows in [1] + (SUM_ROWS if einsum else SUM_ROWS[:19:3]):
                weights = rng.normal(size=(num_states, num_features))
                lift = rng.normal(size=(num_features, rows))
                lift *= 2.0 ** rng.integers(-40, 41, size=(num_features, 1))
                expected = loop_sum(weights, lift).tobytes()
                weighted_sum = _weighted_sum(weights, lift)
                assert weighted_sum().tobytes() == expected, (num_features, num_states, rows)
                strided = np.full((num_states, 3 * rows), np.nan)[:, ::3]
                for out in (np.empty((num_states, rows)), strided):
                    assert weighted_sum(out=out) is out
                    assert out.tobytes() == expected, (num_features, num_states, rows)
                shapes += 1
    assert shapes == len(SUM_FEATURES) * 4 * (1 + (len(SUM_ROWS) if einsum else 7))


def test_einsum_probe_finds_no_fused_multiply_add():
    # Row 0: (1 + 2**-30)(1 - 2**-30) = 1 - 2**-60 rounds to 1, so the
    # loop of adds gives 0.0; a fused multiply-add keeps -2**-60.  Row 1:
    # 1 + 0 + 2**53 - 2**53 is 0.0 added in feature order, since 2**53 + 1
    # rounds to 2**53, and 1.0 added in reverse or pairwise.  The package
    # probed both at import and takes its sums by einsum only if they held.
    weights = np.array([[1.0, 1.0 + 2.0**-30, 0.0, 0.0], [-1.0, 0.0, 1.0, 1.0]])
    lift = np.repeat([[-1.0], [1.0 - 2.0**-30], [2.0**53], [-2.0**53]], 2, axis=1)
    assert loop_sum(weights, lift).tobytes() == bytes(32)
    assert loop_sum(weights[:, ::-1], lift[::-1])[1].tolist() == [1.0, 1.0]
    got = np.einsum("sf,fr->sr", weights, lift)
    try:
        simd = np.show_config(mode="dicts").get("SIMD Extensions")
    except TypeError:  # numpy before 1.26 prints it only
        simd = "unknown"
    build = f"numpy {np.__version__}, SIMD {simd}"
    for row, rule in enumerate(("rounds each product", "adds in feature order")):
        assert got[row].tobytes() == bytes(16), (
            f"einsum gave {got.tolist()} on {build}; row {row} checks that it {rule}")
    assert core._EINSUM_ADDS_IN_ORDER, build
    assert _weighted_sum(weights, lift).func is np.einsum
    assert getattr(_weighted_sum(weights, lift[:, :1]), "func", None) is not np.einsum
