"""Benchmark system catalog, integration, and noise augmentation."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import RK45

import oracles
from nldm import (
    SYSTEM_IDS,
    IntegrationError,
    IntegratorSettings,
    Provenance,
    add_noise,
    integrate,
    make_system,
)
from nldm import odes
from nldm.odes import BenchmarkSystem, CycleAttractor, PointAttractor, _dormand_prince_blocks


ALL_IDENTS = [
    "dnls",
    "double_well",
    "dual_limit_cycle",
    "lho",
    "lorenz",
    "mfcd",
    "two_attractor",
]


def test_catalog_contents():
    assert list(SYSTEM_IDS) == ALL_IDENTS
    for ident in SYSTEM_IDS:
        assert make_system(ident).ident == ident


def test_make_system_rejects_unknowns():
    with pytest.raises(ValueError, match="unknown system"):
        make_system("pendulum")
    with pytest.raises(ValueError, match="gamma"):
        make_system("lho", gamma=2.0)


def test_parameter_overrides_are_applied():
    system = make_system("lorenz", rho=14.0)
    assert system.params["rho"] == 14.0
    assert system.params["sigma"] == 10.0


def test_default_parameters():
    assert make_system("lho").params == {"delta": 1.0}
    assert make_system("dnls").params == {"delta": 1.0}
    assert make_system("two_attractor").params == {}
    assert make_system("double_well").params == {"delta": 0.5, "lam": 1.3}
    assert make_system("lorenz").params == {
        "sigma": 10.0,
        "rho": 28.0,
        "beta": 8.0 / 3.0,
    }
    assert make_system("mfcd").params == {
        "mu": 0.1,
        "omega": 2.0,
        "lam": 6.0,
        "a": -0.1,
    }


def test_every_default_parameter_reaches_the_right_hand_side():
    for ident in SYSTEM_IDS:
        system = make_system(ident)
        state = np.linspace(0.3, 1.7, system.num_states) * [1, -1, 1][: system.num_states]
        before = system.rhs(0.0, state)
        for name, value in system.params.items():
            changed = make_system(ident, **{name: 1.37 * value + 0.21})
            assert not np.array_equal(changed.rhs(0.0, state), before), (ident, name)


def test_attractors_follow_parameter_overrides():
    lam = 0.4
    wells = make_system("double_well", lam=lam).attractors
    roots = np.sort(np.roots([1.0, lam, -1.0]))
    np.testing.assert_allclose([w.location[0] for w in wells], roots)
    assert [w.location[1] for w in wells] == [0.0, 0.0]
    assert make_system("mfcd", a=0.0).attractors == ()
    orbit, = make_system("mfcd", mu=0.5, a=-0.25).attractors
    assert orbit.plane == ((2, 2.0),) and orbit.radius == math.sqrt(2.0)


def test_point_attractors_are_equilibria():
    for ident in ALL_IDENTS:
        system = make_system(ident)
        for attractor in system.attractors:
            if not isinstance(attractor, PointAttractor):
                continue
            velocity = system.rhs(0.0, np.asarray(attractor.location, dtype=float))
            assert np.max(np.abs(velocity)) <= 1e-12, (ident, attractor.ident)


def test_double_well_minima_locations():
    system = make_system("double_well")
    idents = {a.ident: a.location[0] for a in system.attractors}
    lam = system.params["lam"]
    root = math.sqrt(lam * lam + 4.0)
    np.testing.assert_allclose(idents["left_well"], (-lam - root) / 2.0)
    np.testing.assert_allclose(idents["right_well"], (-lam + root) / 2.0)


def test_cycle_attractors_are_invariant():
    tlc = make_system("dual_limit_cycle")
    cycle = next(a for a in tlc.attractors if isinstance(a, CycleAttractor))
    assert cycle.radius == 2.0
    point = np.array([2.0, 0.0])
    velocity = tlc.rhs(0.0, point)
    # Radial component vanishes on the cycle; rotation remains.
    assert abs(np.dot(velocity, point)) <= 1e-12
    assert abs(velocity[1]) > 0.5

    mfcd = make_system("mfcd")
    orbit = next(a for a in mfcd.attractors if isinstance(a, CycleAttractor))
    height = dict(orbit.plane)[2]
    np.testing.assert_allclose(orbit.radius, math.sqrt(height))
    on_orbit = np.array([orbit.radius, 0.0, height])
    velocity = mfcd.rhs(0.0, on_orbit)
    assert abs(velocity[2]) <= 1e-12  # stays in the plane
    assert abs(np.dot(velocity[:2], on_orbit[:2])) <= 1e-12


def test_lho_matches_closed_form():
    system = make_system("lho")
    traj = integrate(system, (1.0, -0.3), (0.0, 8.0), 401)
    exact = oracles.lho_closed_form((1.0, -0.3), 1.0, traj.times)
    assert np.max(np.abs(traj.states - exact)) <= 1e-7


def test_tighter_tolerances_reduce_error():
    system = make_system("lho")
    ic, span, samples = (2.0, 0.0), (0.0, 6.0), 301
    errors = []
    for rel, abs_ in [(1e-6, 1e-9), (1e-9, 1e-12)]:
        traj = integrate(
            system, ic, span, samples,
            settings=IntegratorSettings(rel_tol=rel, abs_tol=abs_),
        )
        exact = oracles.lho_closed_form(ic, 1.0, traj.times)
        errors.append(np.max(np.abs(traj.states - exact)))
    assert errors[1] < errors[0]


def test_integration_grid_metadata():
    system = make_system("lho")
    traj = integrate(system, (1.0, 0.0), (0.0, 9.99), 1000)
    assert traj.num_samples == 1000
    assert traj.dt == pytest.approx(0.01)
    np.testing.assert_allclose(traj.times[0], 0.0)
    np.testing.assert_allclose(traj.times[-1], 9.99)
    assert traj.provenance == Provenance.clean()


def test_integration_validation():
    system = make_system("lho")
    with pytest.raises(ValueError):
        integrate(system, (1.0, 0.0), (0.0, 1.0), 1)
    with pytest.raises(ValueError):
        integrate(system, (1.0, 0.0), (1.0, 1.0), 10)
    with pytest.raises(ValueError, match="width finite as a float"):  # both ends finite
        integrate(system, (1.0, 0.0), (-1e308, 1e308), 10)
    with pytest.raises(ValueError):
        integrate(system, (1.0,), (0.0, 1.0), 10)


@pytest.mark.parametrize(
    "rel_tol, abs_tol", [(-1e-6, -1e-9), (0.0, 1e-9), (1e-6, 0.0), (np.nan, 1e-9), (1e-6, np.inf)]
)
def test_integrator_settings_reject_non_positive_or_non_finite_tolerances(rel_tol, abs_tol):
    # Negative tolerances once integrated, and a zero one warned and then failed.
    with pytest.raises(ValueError, match="must be positive and finite"):
        IntegratorSettings(rel_tol, abs_tol)


def test_integration_error_on_blowup():
    # Inverting the two-attractor flow makes |x| explode in finite time.
    system = make_system("two_attractor")
    # States arrive as (num_states, cells) columns, hence the column sum.
    inverted = lambda t, state: -10.0 * system.rhs(t, state) * (1 + (state * state).sum(axis=0))
    bad = BenchmarkSystem(
        ident="inverted", params={}, num_states=2, rhs=inverted, attractors=()
    )
    with pytest.raises(IntegrationError, match="failed at t="):
        integrate(bad, (0.5, 0.5), (0.0, 100.0), 50)


def test_inlined_tableau_is_scipys_rk45_bitwise():
    for name in "ABCEP":
        ours, reference = getattr(odes, f"_{name}"), getattr(RK45, name)
        assert ours.dtype == reference.dtype and ours.shape == reference.shape, name
        assert ours.tobytes() == reference.tobytes(), name


@pytest.mark.parametrize("ident", ALL_IDENTS)
@pytest.mark.parametrize("t_span", [(0.0, 10.0), (2.5, 8.0)])
def test_integrate_matches_solve_ivp(ident, t_span):
    # Same steps as scipy's RK45 with the right-hand side at the true
    # times; only the order of additions in the stage sums differs.
    system = make_system(ident)
    for ic in np.random.default_rng(5).uniform(-2.0, 2.0, (3, system.num_states)):
        got = integrate(system, ic, t_span, 500).states
        reference = oracles.solve_ivp_series(system, ic, t_span, 500, 1e-9, 1e-12)
        np.testing.assert_allclose(got, reference, rtol=0, atol=1e-9)


def test_right_hand_side_sees_the_true_times():
    forced = BenchmarkSystem(
        ident="forced", params={}, num_states=2, attractors=(),
        rhs=lambda t, state: np.array([state[1], -state[0] - 0.5 * state[1] + np.cos(t)]),
    )
    got = integrate(forced, (1.0, 0.0), (2.5, 8.0), 400).states
    reference = oracles.solve_ivp_series(forced, (1.0, 0.0), (2.5, 8.0), 400, 1e-9, 1e-12)
    np.testing.assert_allclose(got, reference, rtol=0, atol=1e-9)


def test_package_imports_without_scipy():
    src = Path(odes.__file__).resolve().parents[1]
    code = ("import sys, nldm, nldm.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=60)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("ident", ALL_IDENTS)
def test_rhs_evaluates_a_batch_of_states_column_by_column(ident):
    system = make_system(ident)
    states = np.random.default_rng(3).uniform(-3.0, 3.0, (system.num_states, 7))
    columns = [system.rhs(0.0, column) for column in states.T]
    np.testing.assert_array_equal(system.rhs(0.0, states), np.stack(columns, axis=1))


@pytest.mark.parametrize("ident", [i for i in ALL_IDENTS if make_system(i).attractors])
def test_batched_grid_integrator_matches_solve_ivp(ident):
    # The batch takes solve_ivp's steps; only the order of additions in
    # the stage sums differs, so samples agree far below the tolerances.
    # (Lorenz, without attractors, has no grid and would amplify them.)
    system = make_system(ident)
    settings = IntegratorSettings(rel_tol=1e-6, abs_tol=1e-9)
    points = np.random.default_rng(4).uniform(-3.0, 3.0, (8, system.num_states))
    blocks = _dormand_prince_blocks(system.rhs, points, (0.0, 10.0), 401, settings, 32)
    samples = np.concatenate(list(blocks), axis=1)
    for point, got in zip(points, samples):
        reference = oracles.solve_ivp_series(system, point, (0.0, 10.0), 401, 1e-6, 1e-9)
        np.testing.assert_allclose(got, reference, rtol=0, atol=1e-9)


ONE_STATE = BenchmarkSystem(
    ident="one_state", params={}, num_states=1, attractors=(),
    rhs=lambda t, state: np.array([np.cos(t) - state[0] ** 3]),
)


@pytest.mark.parametrize("ident", ALL_IDENTS + ["one_state"])
def test_integrator_samples_match_the_term_by_term_stepper_bitwise(ident):
    # Each start point alone and the five in one batch, in blocks of one
    # sample, of the capture walk's 32 and of the whole span.  With one
    # state and one cell, every stage sum has a single column, which takes
    # the products and their ordered sum.  Then a batch of 9000 state
    # values (num_states * cells) over a short span, whose stage sums are
    # wider than numpy's 8192-entry buffer.
    system = ONE_STATE if ident == "one_state" else make_system(ident)
    points = np.random.default_rng(9).uniform(-2.0, 2.0, (5, system.num_states))
    span, num_samples, tols = (0.5, 3.0), 120, (1e-8, 1e-11)
    settings = IntegratorSettings(*tols)
    batches = [points[i:i + 1] for i in range(5)] + [points]
    for starts in batches:
        expected = oracles.loop_dormand_prince(system.rhs, starts, span, num_samples, *tols)
        for block in (1, 32, num_samples):
            blocks = _dormand_prince_blocks(system.rhs, starts, span, num_samples, settings, block)
            got = np.concatenate(list(blocks), axis=1)
            assert got.tobytes() == expected.tobytes(), (len(starts), block)
    cells = 9000 // system.num_states
    wide = np.random.default_rng(10).uniform(-2.0, 2.0, (cells, system.num_states))
    span, num_samples = (0.5, 0.6), 5
    expected = oracles.loop_dormand_prince(system.rhs, wide, span, num_samples, *tols)
    blocks = _dormand_prince_blocks(system.rhs, wide, span, num_samples, settings, num_samples)
    assert next(blocks).tobytes() == expected.tobytes()


@pytest.mark.parametrize("ident", ALL_IDENTS)
def test_samples_stay_bitwise_when_the_step_log_fills_every_step_or_two(ident, monkeypatch):
    # A two-entry log is evaluated after every other step of one cell and
    # after every step of a batch, so steps whose samples straddle a
    # flush, a block end or both must give the term-by-term stepper's
    # samples.
    monkeypatch.setattr(odes, "_LOG_SIZE", 2)
    system = make_system(ident)
    points = np.random.default_rng(13).uniform(-2.0, 2.0, (4, system.num_states))
    span, num_samples, tols = (0.0, 4.0), 150, (1e-7, 1e-10)
    settings = IntegratorSettings(*tols)
    for starts in [points[:1], points]:
        expected = oracles.loop_dormand_prince(system.rhs, starts, span, num_samples, *tols)
        for block in (1, 32, num_samples):
            blocks = _dormand_prince_blocks(system.rhs, starts, span, num_samples, settings, block)
            got = np.concatenate(list(blocks), axis=1)
            assert got.tobytes() == expected.tobytes(), (len(starts), block)


def test_dnls_energy_never_increases():
    system = make_system("dnls")
    traj = integrate(system, (1.5, -0.5), (0.0, 12.0), 1200)
    x, y = traj.states[:, 0], traj.states[:, 1]
    energy = 0.25 * x**4 + 0.5 * y**2
    assert (np.diff(energy) <= 1e-9).all()


def test_lorenz_stays_on_attractor_scale():
    system = make_system("lorenz")
    traj = integrate(system, (1.0, 1.0, 1.0), (0.0, 20.0), 2000)
    assert np.all(np.isfinite(traj.states))
    assert np.max(np.abs(traj.states)) < 60.0
    assert traj.states[:, 2].max() > 30.0  # the wings reach past z = 30


# --- noise -----------------------------------------------------------------

def test_noise_is_seeded_and_reproducible():
    system = make_system("lho")
    clean = integrate(system, (2.0, 0.0), (0.0, 5.0), 500)
    first = add_noise(clean, 0.1, seed=42)
    second = add_noise(clean, 0.1, seed=42)
    other = add_noise(clean, 0.1, seed=43)
    assert first.states.tobytes() == second.states.tobytes()
    assert first.states.tobytes() != other.states.tobytes()
    assert first.provenance == Provenance.noisy(0.1, 42)


def test_zero_noise_is_bit_identical():
    system = make_system("lho")
    clean = integrate(system, (2.0, 0.0), (0.0, 5.0), 500)
    copied = add_noise(clean, 0.0, seed=1)
    assert copied.states.tobytes() == clean.states.tobytes()
    assert copied.provenance.kind == "noisy"


def test_noise_scales_with_each_channels_range():
    rng_traj = integrate(make_system("lho"), (3.0, 0.0), (0.0, 30.0), 20000)
    noisy = add_noise(rng_traj, 1.0, seed=7)
    residual = noisy.states - rng_traj.states
    ranges = rng_traj.states.max(axis=0) - rng_traj.states.min(axis=0)
    for n in range(rng_traj.num_states):
        observed = residual[:, n].std()
        expected = 0.01 * ranges[n]
        assert abs(observed - expected) < 0.1 * expected


def test_constant_channel_gets_no_noise():
    from nldm import Trajectory

    states = np.column_stack([np.linspace(0, 1, 50), np.full(50, 2.5)])
    traj = Trajectory(states, dt=0.1)
    noisy = add_noise(traj, 5.0, seed=3)
    np.testing.assert_array_equal(noisy.states[:, 1], states[:, 1])
    assert not np.array_equal(noisy.states[:, 0], states[:, 0])


def test_noise_validation():
    system = make_system("lho")
    clean = integrate(system, (2.0, 0.0), (0.0, 5.0), 50)
    with pytest.raises(ValueError):
        add_noise(clean, -0.1, seed=1)


def test_nan_noise_level_is_rejected():
    clean = integrate(make_system("lho"), (2.0, 0.0), (0.0, 5.0), 50)
    with pytest.raises(ValueError, match="sigma_pct"):
        add_noise(clean, float("nan"), seed=1)


def test_a_start_whose_derivative_overflows_fails_by_name():
    # f itself overflows: the step is NaN, so the series fails instead of
    # raising numpy's overflow warning.
    with pytest.raises(IntegrationError, match="non-finite samples"):
        integrate(make_system("lho"), (1e308, 1e308), (0.0, 1.9), 20)


def test_a_start_whose_squared_norm_overflows_matches_solve_ivp():
    # |f| / tolerance is about 1.3e157 here, so its square overflows in
    # the initial step's RMS norm; the norm is taken of the scaled rows
    # instead, and the series runs to the end of its span as scipy's does.
    # scipy's own norm overflows too, and it recovers by starting from its
    # smallest step, hence the error state around it.
    system, ic = make_system("lho"), (6.7e147, -0.5)
    got = integrate(system, ic, (0.0, 1.9), 20).states
    with np.errstate(all="ignore"):
        reference = oracles.solve_ivp_series(system, ic, (0.0, 1.9), 20, 1e-9, 1e-12)
    assert np.isfinite(reference).all()
    np.testing.assert_allclose(got, reference, rtol=1e-8)


def test_rms_of_rows_whose_squares_overflow_is_finite():
    rows = np.array([[3e200, 1.0, np.inf, 3e200, 0.0],
                     [4e200, 2.0, 1.0, np.nan, 0.0]])
    with np.errstate(over="ignore"):  # as the initial step calls it
        norm = odes._rms(rows)
    plain = np.sqrt((rows[:, 1:2] ** 2).sum(axis=0)) / 2 ** 0.5
    assert norm[1:2].tobytes() == plain.tobytes()
    np.testing.assert_allclose(norm[0], 5e200 / 2 ** 0.5, rtol=1e-15)
    assert norm[2] == np.inf and np.isnan(norm[3]) and norm[4] == 0.0
