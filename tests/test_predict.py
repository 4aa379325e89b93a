"""Iterative prediction under a learned operator."""

import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

import oracles
from nldm import (
    DimensionError,
    FeatureConfig,
    LearnedOperator,
    make_system,
    monomial_basis,
    operator_grid,
    predict,
)
from nldm.features import MonomialBasis
from nldm.predict import (
    DIVERGENCE_THRESHOLD, _forecast_batch, _iterate, _weighted_sum, iterate_batch)

# The module, which the package's ``predict`` function shadows.
kernel_module = importlib.import_module("nldm.predict")


def scalar_operator(value, delays=1, degree=1, dt=0.1):
    config = FeatureConfig(num_states=1, delays=delays, degree=degree)
    matrix = np.zeros((1, config.num_features))
    matrix[0, 0] = value
    return LearnedOperator(matrix, config, dt=dt)


# --- worked examples -------------------------------------------------------

def test_halving_example():
    operator = scalar_operator(0.5)
    prediction = predict(operator, np.array([[8.0]]), steps=3)
    np.testing.assert_allclose(prediction.trajectory.states, [[8], [4], [2], [1]])
    assert prediction.diverged_at is None
    assert prediction.trajectory.num_samples - operator.config.delays == 3


def test_zero_operator_maps_everything_to_zero():
    config = FeatureConfig(num_states=2, delays=1, degree=2)
    operator = LearnedOperator(np.zeros((2, 5)), config, dt=0.1)
    prediction = predict(operator, np.array([[3.0, -1.0]]), steps=2)
    np.testing.assert_array_equal(prediction.trajectory.states[1:], np.zeros((2, 2)))


def test_seed_block_is_copied_verbatim():
    config = FeatureConfig(num_states=1, delays=3, degree=2)
    matrix = np.zeros((1, config.num_features))
    matrix[0, 0] = 0.9
    operator = LearnedOperator(matrix, config, dt=0.1)
    seed = np.array([[1.0], [2.0], [3.0]])
    prediction = predict(operator, seed, steps=4)
    np.testing.assert_array_equal(prediction.trajectory.states[:3], seed)
    assert prediction.trajectory.num_samples == 7


def test_prediction_metadata():
    operator = scalar_operator(0.5, dt=0.25)
    prediction = predict(operator, np.array([[8.0]]), steps=2, t0=1.5)
    traj = prediction.trajectory
    assert traj.dt == 0.25
    assert traj.t0 == 1.5
    assert traj.provenance.kind == "clean"


# --- determinism and batching ---------------------------------------------

def test_prediction_is_bit_identical_across_runs():
    rng = np.random.default_rng(2)
    config = FeatureConfig(num_states=2, delays=2, degree=2)
    matrix = 0.05 * rng.normal(size=(2, config.num_features))
    operator = LearnedOperator(matrix, config, dt=0.1)
    seed = rng.normal(size=(2, 2))
    first = predict(operator, seed, steps=50).trajectory.states
    second = predict(operator, seed, steps=50).trajectory.states
    assert first.tobytes() == second.tobytes()


def test_batch_rows_match_single_row_runs_bitwise():
    # Grid sweeps rely on each cell being independent of its batch mates.
    rng = np.random.default_rng(3)
    config = FeatureConfig(num_states=2, delays=2, degree=2)
    matrix = 0.05 * rng.normal(size=(2, config.num_features))
    basis = monomial_basis(config)
    seeds = rng.normal(size=(7, 2, 2))
    states, diverged = iterate_batch(seeds, 40, basis, matrix)
    for i in range(seeds.shape[0]):
        alone, alone_div = iterate_batch(seeds[i : i + 1], 40, basis, matrix)
        assert states[i].tobytes() == alone[0].tobytes()
        assert diverged[i] == alone_div[0]


def test_padded_batch_rows_are_each_series_forecast_alone():
    # The commands forecast training and then test series of different
    # lengths in one batch padded to the longest.  Under a map that
    # doubles the state, the short training row would cross the
    # divergence threshold only in its padding (sample 20, 2**20 > 1e6).
    config = FeatureConfig(num_states=2, delays=1, degree=1)
    operator = LearnedOperator(2.0 * np.eye(2), config, dt=0.1)
    training = [([[1.0, -1.0]], 9, 0.0), ([[0.5, 2.0]], 40, 0.0)]
    tests = [([[-1.0, 1.0]], 15, 1.0), ([[3.0, 0.25]], 30, 2.5)]
    starts = training + tests
    predictions = _forecast_batch(operator, starts)
    for (seeds, steps, t0), prediction in zip(starts, predictions):
        alone = predict(operator, np.array(seeds), steps, t0=t0)
        assert prediction.trajectory.num_samples == 1 + steps
        assert prediction.trajectory.t0 == t0
        assert prediction.trajectory.states.tobytes() == alone.trajectory.states.tobytes()
        assert prediction.diverged_at == alone.diverged_at
    padded, _ = iterate_batch(np.array([training[0][0]]), 40, monomial_basis(config),
                              operator.matrix)
    assert np.isnan(padded[0, 20:]).all() and np.isfinite(padded[0, :20]).all()
    assert [prediction.diverged_at for prediction in predictions] == [None, 19, None, 19]


def test_step_batch_matches_matrix_product():
    rng = np.random.default_rng(4)
    config = FeatureConfig(num_states=2, delays=2, degree=3)
    matrix = rng.normal(size=(2, config.num_features))
    basis = monomial_basis(config)
    windows = rng.normal(size=(5, 2, 2))
    stepped = iterate_batch(windows, 1, basis, matrix)[0][:, -1]
    for i, window in enumerate(windows):
        stacked = window[::-1].reshape(1, -1)
        np.testing.assert_allclose(
            stepped[i], matrix @ basis.evaluate_batch(stacked)[0], rtol=1e-12, atol=1e-12
        )


@pytest.mark.parametrize(
    "shape, permuted",
    [((2, 2, 3), False), ((2, 5, 2), False), ((2, 1, 7), False), ((2, 2, 3), True)],
)
def test_iterate_batch_matches_the_loop_reference_bitwise(shape, permuted):
    from conftest import graded_permutation

    rng = np.random.default_rng(6)
    config = FeatureConfig(*shape)
    canonical = basis = monomial_basis(config)
    perm = np.arange(config.num_features)
    if permuted:
        perm = graded_permutation(basis.exponents, rng)
        basis = MonomialBasis.from_exponents(basis.exponents[perm])
    matrix = 2.0 / config.num_features * rng.normal(size=(2, config.num_features))
    # Every third row starts far out and crosses the divergence threshold.
    seeds = rng.normal(size=(9, config.delays, config.num_states))
    seeds[::3] *= 20.0
    states, diverged = iterate_batch(seeds, 50, basis, matrix)
    # A reordered basis sums its terms in the canonical order.
    expected, expected_div = oracles.loop_iterate(
        seeds, 50, canonical.exponents, matrix[:, np.argsort(perm)])
    assert states.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(diverged, expected_div)
    np.testing.assert_array_equal(diverged[::3] >= 0, True)
    np.testing.assert_array_equal(diverged[1::3] < 0, True)


def test_one_state_model_is_batch_invariant_and_matches_the_loop_reference():
    # With one state, a pairwise or blocked feature sum would group the
    # terms differently for one row than for many.
    rng = np.random.default_rng(7)
    config = FeatureConfig(1, 3, 3)
    basis = monomial_basis(config)
    assert basis.num_monomials == 19
    matrix = 1.5 / config.num_features * rng.normal(size=(1, config.num_features))
    seeds = rng.normal(size=(16, 3, 1))
    states, diverged = iterate_batch(seeds, 60, basis, matrix)
    expected, expected_div = oracles.loop_iterate(seeds, 60, basis.exponents, matrix)
    assert states.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(diverged, expected_div)
    for i in range(seeds.shape[0]):
        alone, _ = iterate_batch(seeds[i : i + 1], 60, basis, matrix)
        assert states[i].tobytes() == alone[0].tobytes()


def test_one_state_rows_masked_down_to_one_match_the_loop_reference():
    # Once a mask leaves a single row, the feature sum must not turn into
    # a pairwise sum over a one-state column.
    rng = np.random.default_rng(10)
    config = FeatureConfig(1, 3, 3)
    basis = monomial_basis(config)
    assert basis.num_monomials >= 8
    matrix = 1.5 / config.num_features * rng.normal(size=(1, config.num_features))
    seeds = rng.normal(size=(6, 3, 1))
    steps = 60
    expected, _ = oracles.loop_iterate(seeds, steps, basis.exponents, matrix)
    kernel = _iterate(seeds, steps, basis, matrix, 8)
    rows, keep = np.arange(6), None
    for lo in range(0, 3 + steps, 8):
        block = kernel.send(keep)
        assert block.tobytes() == expected[rows, lo:lo + 8].tobytes(), lo
        keep = rows == 4 if lo == 16 else None
        rows = rows if keep is None else rows[keep]
    assert rows.tolist() == [4]


def kernel_case(delays, rows=8, steps=40):
    rng = np.random.default_rng(8)
    config = FeatureConfig(2, delays, 2)
    basis = monomial_basis(config)
    matrix = 1.0 / config.num_features * rng.normal(size=(2, config.num_features))
    seeds = rng.normal(size=(rows, delays, 2))
    return seeds, steps, basis, matrix


@pytest.mark.parametrize("delays", [1, 2, 5])
def test_kept_rows_match_an_unmasked_run_bitwise(delays):
    # Masks arrive mid-run, after the ring has wrapped around, and before
    # samples 14 and 21, which sit in different ring slots.
    seeds, steps, basis, matrix = kernel_case(delays)
    full = next(_iterate(seeds, steps, basis, matrix, delays + steps))
    masks = {7: np.arange(8) % 2 == 0, 14: np.array([True, False, True, True])}
    rows = np.arange(8)
    kernel = _iterate(seeds, steps, basis, matrix, 7)
    keep = None
    for lo in range(0, delays + steps, 7):
        block = kernel.send(keep)
        assert block.tobytes() == full[rows, lo:lo + 7].tobytes()
        keep = masks.get(lo)
        if keep is not None:
            rows = rows[keep]
    assert rows.tolist() == [0, 4, 6]


@pytest.mark.parametrize("delays", [1, 2, 5])
def test_blocks_of_any_size_match_the_loop_reference_bitwise(delays):
    # Every third row crosses the divergence threshold; masks drop rows
    # at the blocks that hold samples 6 and 20.
    seeds, steps, basis, matrix = kernel_case(delays, rows=9, steps=45)
    seeds[::3] *= 20.0
    expected, _ = oracles.loop_iterate(seeds, steps, basis.exponents, matrix)
    length = delays + steps
    for size in sorted({1, delays, 7, 32, length}):
        kernel = _iterate(seeds, steps, basis, matrix, size)
        rows, pieces, keep = np.arange(9), {row: [] for row in range(9)}, None
        for lo in range(0, length, size):
            block = kernel.send(keep)
            assert block.shape == (len(rows), min(size, length - lo), 2)
            for row, samples in zip(rows, block):
                pieces[row].append(samples)
            drops = [row for at, dropped in ((6, [0, 4]), (20, [1])) for row in dropped
                     if lo <= at < lo + size]
            keep = ~np.isin(rows, drops)
            rows = rows[keep]
        with pytest.raises(StopIteration):
            kernel.send(keep)
        for row, samples in pieces.items():
            got = np.concatenate(samples)
            assert got.tobytes() == expected[row, :len(got)].tobytes(), (size, row)
        assert all(len(np.concatenate(pieces[row])) == length for row in rows)


@pytest.mark.parametrize("reversed_blocks", [False, True])
@pytest.mark.parametrize("delays", [1, 2, 5])
def test_permuted_basis_with_rows_dropped_between_blocks_matches_the_loop_reference(
        delays, reversed_blocks):
    # The kernel builds its lift plan per block, so a mask that drops rows
    # must leave the next plan reading the kept rows.  A reordered basis
    # sums its terms in the canonical order, whether its degree blocks are
    # shuffled or each taken back to front.
    from conftest import graded_permutation

    rng = np.random.default_rng(12)
    config = FeatureConfig(2, delays, 3)
    exponents = monomial_basis(config).exponents
    perm = graded_permutation(exponents, rng)
    if reversed_blocks:
        degrees = exponents.sum(axis=1)
        perm = np.concatenate([np.flatnonzero(degrees == g)[::-1] for g in range(1, 4)])
    basis = MonomialBasis.from_exponents(exponents[perm])
    matrix = 1.0 / basis.num_monomials * rng.normal(size=(2, basis.num_monomials))
    seeds = rng.normal(size=(9, delays, 2))
    seeds[::4] *= 20.0  # rows 0, 4 and 8 cross the divergence threshold
    steps = 45
    expected, _ = oracles.loop_iterate(seeds, steps, exponents, matrix[:, np.argsort(perm)])
    length = delays + steps
    # Rows leave after the blocks that hold samples 3, 10 and 33.
    drops = {3: [1, 4], 10: [0, 7], 33: [5]}
    for size in sorted({1, delays, 32}):
        kernel = _iterate(seeds, steps, basis, matrix, size)
        rows, pieces, keep = np.arange(9), {row: [] for row in range(9)}, None
        for lo in range(0, length, size):
            block = kernel.send(keep)
            for row, samples in zip(rows, block):
                pieces[row].append(samples)
            dropped = [row for at, rows_at in drops.items() if lo <= at < lo + size
                       for row in rows_at]
            keep = ~np.isin(rows, dropped)
            rows = rows[keep]
        assert rows.tolist() == [2, 3, 6, 8]
        for row, samples in pieces.items():
            got = np.concatenate(samples)
            assert got.tobytes() == expected[row, :len(got)].tobytes(), (size, row)


def study_shapes():
    """(num_states, delays, degree) of each study's model in configs/."""
    shapes = set()
    for path in (Path(__file__).resolve().parents[1] / "configs").glob("*.json"):
        raw = json.loads(path.read_text())
        num_states = make_system(raw["system"]["ident"]).num_states
        shapes.add((num_states, raw["model"]["delays"], raw["model"]["degree"]))
    return sorted(shapes)


@pytest.mark.parametrize("order", ["canonical", "permuted", "reversed"])
@pytest.mark.parametrize("shape", study_shapes(), ids=lambda shape: "S{}d{}o{}".format(*shape))
def test_rows_crossing_from_wide_to_narrow_blocks_match_the_loop_reference(
        shape, order, monkeypatch):
    # With blocks of at most 5 rows narrow, 40 rows step wide, as do the
    # 20 left after the first drop between blocks, with ufunc buffers of
    # 32 and 16 entries, no longer than a row.  The 5 left after the
    # second drop step narrow, where one more row leaves.  A reordered
    # basis, shuffled or with each degree block back to front, sums its
    # terms in the canonical order.
    from conftest import graded_permutation

    monkeypatch.setattr(kernel_module, "_NARROW_ROWS", 5)
    forms = []
    plan = MonomialBasis._lift_plan

    def recorded_plan(self, values, pair=None):
        forms.append("wide" if pair is None else "narrow")
        return plan(self, values, pair)

    monkeypatch.setattr(MonomialBasis, "_lift_plan", recorded_plan)
    rng = np.random.default_rng(13)
    config = FeatureConfig(*shape)
    exponents = monomial_basis(config).exponents
    perm = np.arange(len(exponents))
    if order == "permuted":
        perm = graded_permutation(exponents, rng)
    elif order == "reversed":
        degrees = exponents.sum(axis=1)
        perm = np.concatenate(
            [np.flatnonzero(degrees == g)[::-1] for g in range(1, config.degree + 1)])
    basis = MonomialBasis.from_exponents(exponents[perm])
    matrix = 1.0 / basis.num_monomials * rng.normal(size=(config.num_states, basis.num_monomials))
    seeds = rng.normal(size=(40, config.delays, config.num_states))
    seeds[::3] *= 20.0  # every third row goes far out, most of them past the threshold
    steps, size = 30, 4
    expected, _ = oracles.loop_iterate(seeds, steps, exponents, matrix[:, np.argsort(perm)])
    length = config.delays + steps
    # Rows leave after the blocks that hold samples 9, 17 and 25.
    drops = {9: range(1, 40, 2), 17: [row for row in range(0, 40, 2) if row % 8], 25: [8]}
    buffer = np.getbufsize()
    kernel = _iterate(seeds, steps, basis, matrix, size)
    rows, pieces, keep = np.arange(40), {row: [] for row in range(40)}, None
    for lo in range(0, length, size):
        block = kernel.send(keep)
        for row, samples in zip(rows, block):
            pieces[row].append(samples)
        dropped = [row for at, rows_at in drops.items() if lo <= at < lo + size
                   for row in rows_at]
        keep = ~np.isin(rows, dropped)
        rows = rows[keep]
    assert forms == ["wide"] * 5 + ["narrow"] * (len(forms) - 5)
    assert np.getbufsize() == buffer  # as the kernel found it
    assert rows.tolist() == [0, 16, 24, 32] and len(forms) == -(-length // size)
    for row, samples in pieces.items():
        got = np.concatenate(samples)
        assert got.tobytes() == expected[row, :len(got)].tobytes(), row


def test_all_zero_window_with_negative_coefficients_steps_to_positive_zero():
    # Every product is -0.0; a sum started from +0.0 ends at +0.0.
    config = FeatureConfig(2, 2, 2)
    basis = monomial_basis(config)
    matrix = -np.ones((2, config.num_features))
    stepped = iterate_batch(np.zeros((3, 2, 2)), 1, basis, matrix)[0][:, -1]
    assert not np.signbit(stepped).any()
    expected, _ = oracles.loop_iterate(np.zeros((3, 2, 2)), 1, basis.exponents, matrix)
    assert stepped.tobytes() == expected[:, -1].tobytes()


def test_feature_order_invariance(monkeypatch):
    # A reordered basis with the operator's columns reordered forecasts
    # bitwise like the canonical basis: 12 rows step wide, and the 4 left
    # after the block that holds sample 5 step narrow.
    from conftest import graded_permutation

    monkeypatch.setattr(kernel_module, "_NARROW_ROWS", 5)
    rng = np.random.default_rng(5)
    config = FeatureConfig(num_states=2, delays=2, degree=3)
    matrix = 0.1 * rng.normal(size=(2, config.num_features))
    basis = monomial_basis(config)
    perm = graded_permutation(basis.exponents, rng)
    shuffled = MonomialBasis.from_exponents(basis.exponents[perm])
    seeds = rng.normal(size=(12, 2, 2))
    seeds[::3] *= 20.0  # rows 0, 3, 6 and 9 go far out
    base_states, _ = iterate_batch(seeds, 30, basis, matrix)
    perm_states, _ = iterate_batch(seeds, 30, shuffled, matrix[:, perm])
    assert base_states.tobytes() == perm_states.tobytes()
    runs = []
    for kernel in (_iterate(seeds, 30, basis, matrix, 4),
                   _iterate(seeds, 30, shuffled, matrix[:, perm], 4)):
        blocks, keep = [], None
        for lo in range(0, 32, 4):
            blocks.append(kernel.send(keep))
            keep = np.isin(np.arange(12), [0, 1, 5, 10]) if lo == 4 else None
        runs.append(blocks)
    assert [len(block) for block in runs[0]] == [12, 12] + [4] * 6
    for base, reordered in zip(*runs):
        assert base.tobytes() == reordered.tobytes()


# --- the weighted sum ----------------------------------------------------------

def loop_sum(weights, lift):
    """The sum over the features as the ``+=`` loop from +0.0 forms it."""
    total = np.zeros((len(weights), lift.shape[1]))
    for f in range(len(lift)):
        total += weights[:, f:f + 1] * lift[f]
    return total


SUM_ROWS = [2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 33, 100, 255, 256, 257, 511, 512, 513, 1000,
            4095, 4096, 4097, 8191, 8192, 8193, 10_000]


@pytest.mark.parametrize("einsum", [True, False], ids=["einsum", "products"])
def test_weighted_sum_is_the_loop_of_adds_from_positive_zero(einsum, monkeypatch):
    # Terms spread over 2**-40 .. 2**40 so that any other grouping or a
    # fused multiply-add changes the bits.  ``out`` is contiguous, or
    # every third column of a wider array.  The products path, which one
    # row always takes, runs on fewer shapes: it writes all its products.
    if not einsum:
        monkeypatch.setattr(kernel_module, "_EINSUM_ADDS_IN_ORDER", False)
    rng = np.random.default_rng(17)
    shapes = 0
    for num_features in (1, 2, 9, 17, 34, 65, 120):
        for num_states in (1, 2, 3, 4):
            for rows in [1] + (SUM_ROWS if einsum else SUM_ROWS[:19:3]):
                weights = rng.normal(size=(num_states, num_features))
                lift = rng.normal(size=(num_features, rows))
                lift *= 2.0 ** rng.integers(-40, 41, size=(num_features, 1))
                expected = loop_sum(weights, lift).tobytes()
                strided = np.full((num_states, 3 * rows), np.nan)[:, ::3]
                for out in (np.empty((num_states, rows)), strided):
                    assert _weighted_sum(weights, lift)(out=out) is out
                    assert out.tobytes() == expected, (num_features, num_states, rows)
                    shapes += 1
    assert shapes == 7 * 4 * 2 * (1 + (len(SUM_ROWS) if einsum else 7))


def test_einsum_probe_finds_no_fused_multiply_add():
    # (1 + 2**-30)(1 - 2**-30) = 1 - 2**-60 rounds to 1, so the loop of
    # adds gives 0.0; a fused multiply-add keeps -2**-60.  The kernel
    # probed this at import and takes its sum by einsum only if it held.
    weights = np.array([[1.0, 1.0 + 2.0**-30]])
    lift = np.array([[-1.0, -1.0], [1.0 - 2.0**-30, 1.0 - 2.0**-30]])
    got = np.einsum("sf,fr->sr", weights, lift)
    try:
        simd = np.show_config(mode="dicts").get("SIMD Extensions")
    except TypeError:  # numpy before 1.26 prints it only
        simd = "unknown"
    build = f"numpy {np.__version__}, SIMD {simd}"
    assert got.tobytes() == bytes(16), f"einsum gave {got.tolist()} on {build}"
    assert kernel_module._EINSUM_ADDS_IN_ORDER, build
    assert _weighted_sum(weights, lift).func is np.einsum
    assert getattr(_weighted_sum(weights, lift[:, :1]), "func", None) is not np.einsum


# A contracting map with sinks near (+-1, 0), as two_attractor has:
# x' = x + (x - x**3) / 10 and y' = 0.9 y, plus small terms on every
# feature.  It forecasts seven series in one batch and one alone, steps
# 600 rows wide, and labels a 24 x 24 operator grid, whose 576 cells step
# wide, then narrow.
DISPATCH_DIGEST = """
import hashlib
import numpy as np
from nldm import (
    FeatureConfig, LearnedOperator, make_system, monomial_basis, operator_grid, predict)
from nldm.predict import _forecast_batch, iterate_batch

rng = np.random.default_rng(3)
config = FeatureConfig(2, 2, 3)
exponents = [tuple(row) for row in monomial_basis(config).exponents.tolist()]
matrix = 1e-4 * rng.normal(size=(2, config.num_features))
matrix[0, 0] += 1.1
matrix[0, exponents.index((3, 0, 0, 0))] -= 0.1
matrix[1, 1] += 0.9
operator = LearnedOperator(matrix, config, dt=0.01)
digest = hashlib.sha256()
starts = [(rng.normal(size=(2, 2)), 50 + 40 * k, 0.0) for k in range(7)]
for forecast in _forecast_batch(operator, starts) + [predict(operator, starts[0][0], 90)]:
    digest.update(forecast.trajectory.states.tobytes())
seeds = rng.uniform(-3, 3, size=(600, 2, 2))
digest.update(iterate_batch(seeds, 300, monomial_basis(config), matrix)[0].tobytes())
grid = operator_grid(operator, make_system("two_attractor"), [[-3, 3], [-3, 3]], 24, steps=300)
labels = grid.labels.ravel().tolist()
digest.update(" ".join(labels).encode())
print(digest.hexdigest(), sorted(set(labels)))
"""


def test_kernel_bytes_do_not_depend_on_numpy_cpu_dispatch(capsys):
    # With every dispatch target numpy built disabled, its loops run at
    # the baseline; the multiplies and ordered adds round the same.
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    targets = getattr(umath, "__cpu_dispatch__", [])
    if not targets:
        pytest.skip("this numpy has no dispatch targets")
    exec(DISPATCH_DIGEST, {})
    here = capsys.readouterr().out
    assert "'left_sink', 'right_sink'" in here
    src = Path(kernel_module.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    result = subprocess.run([sys.executable, "-c", DISPATCH_DIGEST], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == here, f"disabled {targets}"


# --- divergence handling ----------------------------------------------------

def test_divergence_marks_first_bad_step():
    operator = scalar_operator(2.0)
    seed = np.array([[1.0]])
    steps = 40
    prediction = predict(operator, seed, steps=steps)
    # Sample k holds 2**k; the first to exceed 1e6 is k = 20.
    expected_step = int(np.ceil(np.log2(DIVERGENCE_THRESHOLD)))
    assert prediction.diverged_at == expected_step
    states = prediction.trajectory.states
    assert np.isfinite(states[: expected_step]).all()
    assert np.isnan(states[expected_step :]).all()
    assert states.shape == (steps + 1, 1)


def divergence_case(case):
    """A delays-2 cubic model on two states and seed rows that leave the
    divergence threshold in different ways."""
    delays = 2
    config = FeatureConfig(2, delays, 3)
    basis = monomial_basis(config)
    index = {tuple(row): j for j, row in enumerate(basis.exponents)}
    matrix = np.zeros((2, config.num_features))
    rng = np.random.default_rng(11)
    if case == "crossing":
        # x_t = 2 x_{t-1} and y_t = y_{t-1} / 2.  A newest x seed of
        # +-1.5e6 / 2**i first leaves the threshold at sample delays - 1 + i,
        # so every block size has rows that first go bad at the first (past
        # the seeds), a middle and the last sample of a block.
        matrix[0, index[1, 0, 0, 0]], matrix[1, index[0, 1, 0, 0]] = 2.0, 0.5
        i = np.arange(1, 61)
        seeds = np.zeros((len(i) + 4, delays, 2))
        seeds[:len(i), -1, 0] = 1.5e6 / 2.0**i * rng.choice([-1.0, 1.0], len(i))
        # Samples exactly at +-threshold are within it; the next are not.
        seeds[len(i):len(i) + 2, -1, 0] = 1e6 / 2.0**7, -1e6 / 2.0**9
        seeds[:, :, 1] = rng.uniform(-1.0, 1.0, (len(seeds), delays))
        # Finite seeds above the threshold stay: an older x that no step
        # reads, and a newest y that halves back within the threshold.
        seeds[-2, 0, 0] = 5e6
        seeds[-1, -1, 1] = -1.5e6
    else:
        # x_t = 1e300 x_{t-1}**3 + 1e305 x_{t-2} and y_t = 1e300 y_{t-1}**3:
        # rows go from within the threshold straight to +-inf or, as
        # inf - inf, to NaN, with no finite sample above it.
        matrix[0, index[3, 0, 0, 0]], matrix[0, index[0, 0, 1, 0]] = 1e300, 1e305
        matrix[1, index[0, 3, 0, 0]] = 1e300
        seeds = np.array([
            [[0.0, 0.0], [1e3, 0.0]],     # +inf at sample 2
            [[0.0, 0.0], [-1e3, 0.0]],    # -inf at sample 2
            [[-1e5, 0.0], [1e3, 0.0]],    # NaN at sample 2
            [[1e-300, 0.0], [0.0, 0.0]],  # 1e5 at sample 2, inf at 3
            [[0.0, 0.0], [0.0, 2e3]],     # y to inf at sample 2
            [[0.0, 0.0], [0.0, 0.0]],     # stays at zero
        ])
    return seeds, 60, basis, matrix


@pytest.mark.parametrize("case", ["crossing", "overflow"])
def test_blockwise_divergence_cut_matches_the_loop_reference_bitwise(case):
    seeds, steps, basis, matrix = divergence_case(case)
    n, delays = seeds.shape[:2]
    length = delays + steps
    expected, expected_div = oracles.loop_iterate(seeds, steps, basis.exponents, matrix)
    assert (expected_div >= 0).sum() == (n - 2 if case == "crossing" else n - 1)
    above = (np.abs(seeds) > DIVERGENCE_THRESHOLD).sum()
    assert np.isfinite(seeds).all() and above == (2 if case == "crossing" else 0)
    diverged = np.flatnonzero(expected_div >= 0)
    for size in sorted({1, delays, 7, 32, length}):
        if case == "crossing":
            offsets = set(expected_div[diverged] % size)
            assert {size // 2, size - 1} | ({0} if size < length else set()) <= offsets
        kernel = _iterate(seeds, steps, basis, matrix, size)
        rows, pieces, keep = np.arange(n), {row: [] for row in range(n)}, None
        for lo in range(0, length, size):
            block = kernel.send(keep)
            for row, samples in zip(rows, block):
                pieces[row].append(samples)
            # Every other row that went bad before sample 20 is dropped
            # in the block that holds it.
            drop = (lo <= 20 < lo + size) & (expected_div[rows] >= 0) & (
                expected_div[rows] < 20) & (rows % 2 == 0)
            keep = ~drop
            rows = rows[keep]
        assert len(rows) < n
        for row, samples in pieces.items():
            got = np.concatenate(samples)
            assert got.tobytes() == expected[row, :len(got)].tobytes(), (size, row)
        assert all(len(np.concatenate(pieces[row])) == length for row in rows)
    states, diverged_at = iterate_batch(seeds, steps, basis, matrix)
    assert states.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(diverged_at, expected_div)


def test_contracting_map_never_diverges():
    operator = scalar_operator(0.99)
    prediction = predict(operator, np.array([[100.0]]), steps=200)
    assert prediction.diverged_at is None
    assert np.isfinite(prediction.trajectory.states).all()


def test_overflowing_operator_diverges_without_a_warning():
    # Products of 1e300 and cubes of 1e9 overflow to +-inf and their sums
    # to NaN; the kernel silences both and cuts the rows to NaN.
    config = FeatureConfig(2, 1, 3)
    operator = LearnedOperator(np.full((2, config.num_features), 1e300), config, dt=0.1)
    seeds = np.array([[[1e9, 1e9]], [[1e9, -1e9]], [[-1e9, 1e9]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states, diverged = iterate_batch(seeds, 3, monomial_basis(config), operator.matrix)
        window = ((1e9, 2e9), (-2e9, -1e9))
        grid = operator_grid(operator, make_system("two_attractor"), window, 2, steps=3)
    assert diverged.tolist() == [1, 1, 1]
    assert np.isnan(states[:, 1:]).all()
    assert (grid.labels == "diverged").all()


# --- validation ------------------------------------------------------------

def test_seed_validation():
    operator = scalar_operator(0.5, delays=2)
    with pytest.raises(DimensionError):
        predict(operator, np.array([[1.0]]), steps=3)  # needs 2 seed rows
    with pytest.raises(ValueError):
        predict(operator, np.array([[np.nan], [1.0]]), steps=3)
    with pytest.raises(ValueError):
        predict(operator, np.array([[1.0], [2.0]]), steps=-1)
    # The batch of the commands checks every start as predict does.
    good = (np.array([[1.0], [2.0]]), 3, 0.0)
    for bad, error in (((np.array([[1.0]]), 3, 0.0), DimensionError),
                       ((np.array([[np.inf], [1.0]]), 3, 0.0), ValueError),
                       ((np.array([[1.0], [2.0]]), -1, 0.0), ValueError)):
        with pytest.raises(error):
            _forecast_batch(operator, [good, bad])


def test_iterate_batch_rejects_seeds_matrices_and_steps_of_the_wrong_shape():
    rng = np.random.default_rng(9)
    basis = monomial_basis(FeatureConfig(2, 2, 2))
    matrix = rng.normal(size=(2, basis.num_monomials))
    iterate_batch(rng.normal(size=(1, 2, 2)), 4, basis, matrix)
    with pytest.raises(DimensionError):  # three delays for a two-delay basis
        iterate_batch(rng.normal(size=(1, 3, 2)), 4, basis, matrix)
    with pytest.raises(DimensionError):  # one window, not a batch of them
        iterate_batch(rng.normal(size=(2, 2)), 4, basis, matrix)
    with pytest.raises(DimensionError):
        iterate_batch(rng.normal(size=(1, 2, 2)), 4, basis, matrix[:, :-1])
    with pytest.raises(DimensionError):
        iterate_batch(rng.normal(size=(1, 2, 2)), 4, basis, matrix[:1])
    with pytest.raises(ValueError):
        iterate_batch(rng.normal(size=(1, 2, 2)), -1, basis, matrix)


def test_zero_steps_requires_two_seed_rows():
    two_row = scalar_operator(0.5, delays=2)
    prediction = predict(two_row, np.array([[1.0], [2.0]]), steps=0)
    assert prediction.trajectory.num_samples == 2
    one_row = scalar_operator(0.5, delays=1)
    with pytest.raises(ValueError):
        predict(one_row, np.array([[1.0]]), steps=0)


@settings(max_examples=20)
@given(steps=st.integers(1, 60), value=st.floats(-0.9, 0.9))
def test_scalar_geometric_series(steps, value):
    operator = scalar_operator(value)
    prediction = predict(operator, np.array([[1.0]]), steps=steps)
    expected = value ** np.arange(steps + 1)
    np.testing.assert_allclose(
        prediction.trajectory.states[:, 0], expected, rtol=1e-12, atol=1e-12
    )
