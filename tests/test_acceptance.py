"""Acceptance gate for the whole toolkit.

Every test here exercises one end-to-end capability at a pinned
tolerance and appends a PASS/FAIL line to the run summary, so the final
pytest output lists each capability on its own line.  Tolerances are
fixed; a failing line means the capability is genuinely not met.
"""

import math
import time

import numpy as np

from conftest import ACCEPTANCE_LINES, graded_permutation
from oracles import count_monomials, svd_min_norm_solution, taylor_expm

from nldm import (
    FeatureConfig,
    IntegratorSettings,
    add_noise,
    feature_dim,
    grid_agreement,
    ground_truth_grid,
    integrate,
    make_system,
    monomial_basis,
    operator_grid,
    rrmse,
    solve_min_frobenius,
    train,
)
from nldm.features import MonomialBasis
from nldm.predict import iterate_batch, predict


def record(index, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"[{status}] {index:02d} {name}: {detail}")
    assert passed, f"{name}: {detail}"


def polar(radius, angle):
    return (radius * math.cos(angle), radius * math.sin(angle))


def forecast_score(operator, reference, steps=None):
    """Seed from the reference head, forecast the rest, score vs reference."""
    delays = operator.config.delays
    if steps is None:
        steps = reference.num_samples - delays
    prediction = predict(operator, reference.states[:delays], steps, t0=reference.t0)
    return rrmse(prediction.trajectory, reference, skip=delays), prediction


def test_linear_oscillator_matches_matrix_exponential():
    started = time.perf_counter()
    system = make_system("lho")
    trajectory = integrate(system, (2.0, 1.0), (0.0, 9.99), 1000)
    assert trajectory.dt == 0.01
    result = train([trajectory], FeatureConfig(2, 1, 1))
    generator = np.array([[0.0, 1.0], [-1.0, -1.0]])
    expected = taylor_expm(generator * trajectory.dt)
    error = float(np.linalg.norm(result.operator.matrix - expected))
    elapsed = time.perf_counter() - started
    record(
        1,
        "damped-oscillator one-step map equals the matrix exponential",
        error <= 1e-6 and elapsed < 5,
        f"Frobenius error {error:.2e} (cap 1e-06), {elapsed:.1f}s (cap 5s)",
    )


def test_feature_counts_match_enumeration():
    started = time.perf_counter()
    checked = 0
    mismatches = []
    for num_states in range(1, 7):
        for delays in range(1, 7):
            if num_states * delays > 6:
                continue
            for degree in range(1, 5):
                expected = count_monomials(num_states * delays, degree)
                got = feature_dim(num_states, delays, degree)
                checked += 1
                if got != expected:
                    mismatches.append((num_states, delays, degree, got, expected))
    fourteen = feature_dim(2, 2, 2)
    elapsed = time.perf_counter() - started
    record(
        2,
        "feature count equals brute-force monomial enumeration",
        not mismatches and fourteen == 14 and elapsed < 1,
        f"{checked} shapes verified, 2 states x 2 delays at degree 2 gives "
        f"{fourteen} features, {elapsed:.2f}s (cap 1s)",
    )


def test_min_norm_solver_matches_svd_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    deficient = 0
    for case in range(200):
        num_features, num_columns, num_states = rng.integers(1, 7, size=3)
        features = rng.standard_normal((num_features, num_columns))
        if case % 3 == 0 and num_features > 1:
            features[rng.integers(num_features)] = features[rng.integers(num_features)]
        if np.linalg.matrix_rank(features) < min(features.shape):
            deficient += 1
        targets = rng.standard_normal((num_states, num_columns))
        solution = solve_min_frobenius(features, targets).solution
        oracle = svd_min_norm_solution(features, targets)
        scale = max(1.0, float(np.abs(oracle).max()))
        worst = max(worst, float(np.abs(solution - oracle).max()) / scale)
    elapsed = time.perf_counter() - started
    record(
        3,
        "min-norm solver agrees with an independent SVD pseudo-inverse",
        worst <= 1e-8 and deficient > 0 and elapsed < 5,
        f"200 instances ({deficient} rank-deficient), worst relative "
        f"deviation {worst:.2e} (cap 1e-08), {elapsed:.1f}s (cap 5s)",
    )


def test_double_well_forecasts_within_basin():
    started = time.perf_counter()
    system = make_system("double_well")
    tight = IntegratorSettings(rel_tol=1e-12, abs_tol=1e-14)
    training = integrate(system, (2.1, 3.0), (0.0, 20.0), 1000, tight)
    result = train([training], FeatureConfig(2, 4, 3))
    train_score = result.mean_rrmse

    lam = system.params["lam"]
    right_well = (-lam + math.sqrt(lam * lam + 4.0)) / 2.0
    scores = []
    for angle in np.linspace(0.0, math.pi, 13):
        reference = integrate(
            system, (math.cos(angle), math.sin(angle)), (0.0, 20.0), 1000, tight
        )
        if abs(reference.states[-1, 0] - right_well) >= 0.1:
            continue  # other basin: the operator never saw that well
        score, _ = forecast_score(result.operator, reference)
        scores.append(score.mean_rrmse)
    test_mean = float(np.mean(scores))
    elapsed = time.perf_counter() - started
    record(
        4,
        "double-well forecasts stay sharp across its training basin",
        train_score <= 1e-6 and test_mean <= 1e-4 and len(scores) >= 5 and elapsed < 60,
        f"train {train_score:.2e} (cap 1e-06), test mean {test_mean:.2e} over "
        f"{len(scores)} same-basin seeds (cap 1e-04), {elapsed:.0f}s (cap 60s)",
    )


def test_training_coverage_controls_bistable_generalization():
    started = time.perf_counter()
    system = make_system("two_attractor")
    span, samples = (0.0, 10.0), 2000
    config = FeatureConfig(2, 2, 3)

    def noisy_set(ics, seeds):
        cleans = [integrate(system, ic, span, samples) for ic in ics]
        noisies = [add_noise(c, 0.1, s) for c, s in zip(cleans, seeds)]
        return noisies, cleans

    def probe(operator, ic, seed):
        clean = integrate(system, ic, span, samples)
        noisy = add_noise(clean, 0.1, seed)
        prediction = predict(operator, noisy.states[:2], samples - 2, t0=clean.t0)
        score = rrmse(prediction.trajectory, clean, skip=2)
        return score.mean_rrmse, prediction.diverged_at

    left_ics = [(-0.5, 1.0), (-1.5, -2.0), (-2.0, 2.5)]
    narrow, narrow_refs = noisy_set(left_ics, (10, 11, 12))
    narrow_op = train(narrow, config, references=narrow_refs).operator
    near_score, near_diverged = probe(narrow_op, (0.025, 1.0), 50)
    narrow_fails = near_diverged is not None or not near_score < 1.0
    opposite_diverge = True
    for ic in ((1.2, 1.0), (2.0, -2.0), (1.5, 2.0)):
        clean = integrate(system, ic, span, samples)
        _, prediction = forecast_score(narrow_op, clean)
        opposite_diverge &= prediction.diverged_at is not None

    both, both_refs = noisy_set(left_ics + [(1.5, 2.0)], (10, 11, 12, 14))
    both_op = train(both, config, references=both_refs).operator
    repaired_a, div_a = probe(both_op, (0.025, 1.0), 50)
    repaired_b, div_b = probe(both_op, (-0.25, 3.0), 51)
    repaired = div_a is None and repaired_a <= 0.5 and div_b is None and repaired_b <= 0.5

    # The on-boundary start rides an invariant axis (constant x channel),
    # so its score is undefined; only its divergence status is reported.
    clean = integrate(system, (0.0, -3.0), span, samples)
    noisy = add_noise(clean, 0.1, 52)
    boundary_div = predict(both_op, noisy.states[:2], samples - 2).diverged_at

    elapsed = time.perf_counter() - started
    boundary_text = (
        "diverged" if boundary_div is not None else "stayed finite"
    )
    record(
        5,
        "one-basin training fails off-basin; two-basin training repairs it",
        narrow_fails and opposite_diverge and repaired and elapsed < 60,
        f"narrow near-boundary score {near_score:.3g} (needs >= 1 or "
        f"divergence), opposite-basin probes all diverge: {opposite_diverge}; "
        f"repaired scores {repaired_a:.2e}, {repaired_b:.2e} (cap 0.5); "
        f"boundary probe {boundary_text} (informational), {elapsed:.0f}s (cap 60s)",
    )


def test_noisy_oscillator_scores_stay_low_across_seeds():
    started = time.perf_counter()
    system = make_system("lho")
    span, samples = (0.0, 10.0), 1000
    config = FeatureConfig(2, 2, 1)
    train_ics = [(2.0, 0.0), (-1.0, 2.0), (-2.0, -1.0), (1.0, -2.0)]
    cleans = [integrate(system, ic, span, samples) for ic in train_ics]
    clean_test = integrate(system, (0.0, 2.0), span, samples)

    train_means, test_means = [], []
    for trial in range(5):
        noisies = [
            add_noise(clean, 0.1, 1000 + 10 * trial + i)
            for i, clean in enumerate(cleans)
        ]
        result = train(noisies, config, references=cleans)
        train_means.append(result.mean_rrmse)
        noisy_test = add_noise(clean_test, 0.1, 2000 + trial)
        prediction = predict(result.operator, noisy_test.states[:2], samples - 2)
        test_means.append(rrmse(prediction.trajectory, clean_test, 2).mean_rrmse)

    train_mean = float(np.mean(train_means))
    test_mean = float(np.mean(test_means))
    elapsed = time.perf_counter() - started
    record(
        6,
        "noisy-oscillator skill averaged over five noise draws",
        train_mean <= 3e-2 and test_mean <= 3e-2 and elapsed < 30,
        f"train mean {train_mean:.2e}, test mean {test_mean:.2e} "
        f"(caps 3e-02), {elapsed:.0f}s (cap 30s)",
    )


def test_lorenz_short_horizon_skill():
    started = time.perf_counter()
    system = make_system("lorenz")
    settings = IntegratorSettings(rel_tol=5e-7, abs_tol=5e-10)
    span, samples = (0.0, 10.0), 4000
    train_ics = [
        (0.0, 1.0, 1.05),
        (3.0, 3.0, 5.0),
        (-10.0, -10.0, 2.0),
        (-10.0, -1.0, 2.0),
        (20.0, 10.0, 10.0),
    ]
    trajectories = [integrate(system, ic, span, samples, settings) for ic in train_ics]
    result = train(trajectories, FeatureConfig(3, 3, 2))
    reference = integrate(system, (5.0, 1.0, 6.0), span, samples, settings)
    score, _ = forecast_score(result.operator, reference)
    elapsed = time.perf_counter() - started
    record(
        7,
        "chaotic-attractor forecasts hold over a short horizon",
        result.mean_rrmse <= 1e-2 and score.mean_rrmse <= 5e-2 and elapsed < 120,
        f"train mean {result.mean_rrmse:.2e} (cap 1e-02), held-out "
        f"{score.mean_rrmse:.2e} (cap 5e-02), {elapsed:.0f}s (cap 120s)",
    )


def test_basin_grid_agreement():
    started = time.perf_counter()
    system = make_system("two_attractor")
    window = ((-3.0, 3.0), (-3.0, 3.0))
    truth = ground_truth_grid(system, window, 100, horizon=10.0)

    split_exact = True
    for i, x in enumerate(truth.xs):
        wanted = "left_sink" if x < 0 else "right_sink"
        split_exact &= bool((truth.labels[i] == wanted).all())

    span, samples = (0.0, 10.0), 2000
    ics = [
        (-3.0, 3.0), (-3.0, -3.0), (3.0, 3.0), (3.0, -3.0),
        (-3.0, 0.3), (3.0, -0.3), (-0.2, 3.0), (0.2, 3.0),
        (-0.2, -3.0), (0.2, -3.0),
    ]
    cleans = [integrate(system, ic, span, samples) for ic in ics]
    noisies = [add_noise(c, 0.1, 100 + i) for i, c in enumerate(cleans)]
    result = train(noisies, FeatureConfig(2, 2, 3), references=cleans)
    predicted = operator_grid(result.operator, system, window, 100, steps=2000)
    agreement = grid_agreement(truth, predicted)
    elapsed = time.perf_counter() - started
    record(
        8,
        "learned basin map agrees with the integrated one",
        split_exact and agreement.fraction_agree >= 0.90 and elapsed < 120,
        f"truth grid splits the window exactly: {split_exact}; agreement "
        f"{agreement.fraction_agree:.3f} on {agreement.compared_cells} resolved "
        f"cells (floor 0.90), {elapsed:.0f}s (cap 120s)",
    )


def test_dual_cycle_captures_both_attractors():
    started = time.perf_counter()
    system = make_system("dual_limit_cycle")
    span, samples = (0.0, 10.0), 1000
    config = FeatureConfig(2, 1, 7)
    train_polar = [
        (0.2, 1.0), (0.35, 2.5), (0.5, 0.0), (0.5, 2.094), (0.5, 4.189),
        (0.7, 3.8), (0.9, 5.5), (0.9, 1.8),
        (1.2, 0.6), (1.6, 3.2),
        *[(3.1, k * math.pi / 5.0) for k in range(10)],
        (2.5, 0.9), (2.5, 4.0),
    ]
    cleans = [integrate(system, polar(r, a), span, samples) for r, a in train_polar]
    noisies = [add_noise(c, 0.1, 300 + i) for i, c in enumerate(cleans)]
    result = train(noisies, config, references=cleans)

    def tail_radius(ic):
        reference = integrate(system, ic, span, samples)
        delays = config.delays
        prediction = predict(
            result.operator, reference.states[:delays], samples - delays, t0=reference.t0
        )
        tail = prediction.trajectory.states[-100:]
        return float(np.mean(np.hypot(tail[:, 0], tail[:, 1])))

    outer_tails = [tail_radius(polar(3.0, a)) for a in (4 * math.pi / 3, 0.7)]
    inner_tails = [tail_radius(polar(0.5, a)) for a in (math.pi / 6, 3.5)]
    outer_ok = all(1.9 <= r <= 2.1 for r in outer_tails)
    inner_ok = all(r <= 0.1 for r in inner_tails)
    elapsed = time.perf_counter() - started
    record(
        9,
        "learned map reproduces both the stable cycle and the stable point",
        outer_ok and inner_ok,
        f"outside-the-cycle tails {outer_tails[0]:.2f}, {outer_tails[1]:.2f} "
        f"(need 2 +/- 0.1): {outer_ok}; inside tails {inner_tails[0]:.2f}, "
        f"{inner_tails[1]:.2f} (need <= 0.1): {inner_ok}; {elapsed:.0f}s",
    )


def test_invariant_bundle():
    started = time.perf_counter()
    rng = np.random.default_rng(7)

    # Reordering monomials (with matching operator columns) never changes
    # predictions.
    config = FeatureConfig(2, 2, 2)
    matrix = 0.1 * rng.normal(size=(2, config.num_features))
    basis = monomial_basis(config)
    perm = graded_permutation(basis.exponents, rng)
    shuffled = MonomialBasis.from_exponents(basis.exponents[perm])
    seeds = rng.normal(size=(4, 2, 2))
    base_states, _ = iterate_batch(seeds, 40, basis, matrix)
    perm_states, _ = iterate_batch(seeds, 40, shuffled, matrix[:, perm])
    permutation_ok = bool(np.allclose(base_states, perm_states, atol=1e-10))

    # Scaling prediction and reference together leaves the score alone.
    from nldm.core import Trajectory

    reference = Trajectory(rng.normal(size=(50, 2)), dt=0.1)
    predicted = Trajectory(
        reference.states + 0.01 * rng.normal(size=(50, 2)), dt=0.1
    )
    base = rrmse(predicted, reference, skip=0).mean_rrmse
    scaled = rrmse(
        Trajectory(7.5 * predicted.states, dt=0.1),
        Trajectory(7.5 * reference.states, dt=0.1),
        skip=0,
    ).mean_rrmse
    scale_ok = math.isclose(base, scaled, rel_tol=1e-12)

    # Noise draws are seed-determined, and different seeds differ.
    system = make_system("lho")
    clean = integrate(system, (2.0, 0.0), (0.0, 5.0), 200)
    same = add_noise(clean, 0.1, 9).states == add_noise(clean, 0.1, 9).states
    other = add_noise(clean, 0.1, 10).states
    noise_ok = bool(same.all()) and not np.array_equal(
        add_noise(clean, 0.1, 9).states, other
    )

    # The cubic oscillator only dissipates: its energy never rises.
    dnls = integrate(make_system("dnls"), (1.5, 0.5), (0.0, 10.0), 500)
    energy = dnls.states[:, 0] ** 4 / 4.0 + dnls.states[:, 1] ** 2 / 2.0
    energy_ok = bool((np.diff(energy) <= 1e-9).all())

    # Prediction is a pure function of operator and seeds.
    result = train([clean], FeatureConfig(2, 2, 1))
    first = predict(result.operator, clean.states[:2], 100)
    second = predict(result.operator, clean.states[:2], 100)
    deterministic = np.array_equal(
        first.trajectory.states, second.trajectory.states
    )

    elapsed = time.perf_counter() - started
    checks = {
        "feature-order invariance": permutation_ok,
        "score scale invariance": scale_ok,
        "seeded noise reproducibility": noise_ok,
        "dissipation monotonicity": energy_ok,
        "prediction determinism": deterministic,
    }
    failed = [name for name, ok in checks.items() if not ok]
    record(
        10,
        "cross-cutting invariants hold",
        not failed and elapsed < 60,
        (f"all {len(checks)} invariants hold" if not failed else f"failed: {failed}")
        + f", {elapsed:.0f}s (cap 60s)",
    )
