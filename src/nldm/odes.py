"""Benchmark dynamical systems, reference integration, and noise.

The catalog covers the standard planar test problems (a damped linear
oscillator, a damped cubic oscillator, a two-sink gradient-like flow, an
asymmetric double well), a three-dimensional mean-field model with a
limit cycle, a planar flow with two concentric limit cycles, and the
Lorenz system.  Each system records its parameters and, where
meaningful, descriptors of its attractors for basin classification.

Reference trajectories come from an adaptive Dormand-Prince 5(4) pair
(scipy's RK45) with dense output evaluated on a uniform grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy.integrate import solve_ivp

from .core import DimensionError, IntegrationError, Provenance, Trajectory

__all__ = [
    "PointAttractor",
    "CycleAttractor",
    "BenchmarkSystem",
    "IntegratorSettings",
    "SYSTEM_IDS",
    "make_system",
    "integrate",
    "add_noise",
]


@dataclass(frozen=True)
class PointAttractor:
    """A stable equilibrium, identified by name and location."""

    ident: str
    location: tuple[float, ...]


@dataclass(frozen=True)
class CycleAttractor:
    """A stable circular limit cycle.

    The cycle lives in the plane spanned by state indices ``axes`` at
    distance ``radius`` from their origin; ``plane`` pins any remaining
    coordinates (index, value) for higher-dimensional systems.
    """

    ident: str
    radius: float
    axes: tuple[int, int] = (0, 1)
    plane: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True, eq=False)
class BenchmarkSystem:
    ident: str
    params: dict
    num_states: int
    rhs: object
    attractors: tuple = ()


@dataclass(frozen=True)
class IntegratorSettings:
    """Tolerances and step bounds for the adaptive integrator."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = math.inf
    first_step: float | None = None


# Right-hand sides are module level (and bound with functools.partial)
# so systems stay picklable for process-parallel basin scans.

def _lho_rhs(t, state, delta):
    x, y = state
    return np.array([y, -x - delta * y])


def _dnls_rhs(t, state, delta):
    x, y = state
    return np.array([y, -x**3 - delta * y])


def _two_attractor_rhs(t, state):
    x, y = state
    return np.array([x - x**3, -y])


def _double_well_rhs(t, state, delta, lam):
    x, y = state
    return np.array([y, -x * (-1.0 + lam * x + x**2) - delta * y])


def _mfcd_rhs(t, state, mu, omega, lam, a):
    x, y, z = state
    return np.array([
        mu * x - omega * y + a * x * z,
        omega * x + mu * y + a * y * z,
        -lam * (z - x**2 - y**2),
    ])


def _dual_limit_cycle_rhs(t, state):
    x, y = state
    r2 = x**2 + y**2
    growth = (r2 - 1.0) * (4.0 - r2)
    return np.array([growth * x - y, growth * y + x])


def _lorenz_rhs(t, state, sigma, rho, beta):
    x, y, z = state
    return np.array([sigma * (y - x), x * (rho - z) - y, x * y - beta * z])


def _build_lho(params):
    return BenchmarkSystem(
        ident="lho",
        params=params,
        num_states=2,
        rhs=partial(_lho_rhs, delta=params["delta"]),
        attractors=(PointAttractor("origin", (0.0, 0.0)),),
    )


def _build_dnls(params):
    return BenchmarkSystem(
        ident="dnls",
        params=params,
        num_states=2,
        rhs=partial(_dnls_rhs, delta=params["delta"]),
        attractors=(PointAttractor("origin", (0.0, 0.0)),),
    )


def _build_two_attractor(params):
    return BenchmarkSystem(
        ident="two_attractor",
        params=params,
        num_states=2,
        rhs=_two_attractor_rhs,
        attractors=(
            PointAttractor("left_sink", (-1.0, 0.0)),
            PointAttractor("right_sink", (1.0, 0.0)),
        ),
    )


def _build_double_well(params):
    lam = params["lam"]
    # Stable wells sit at the outer roots of x**2 + lam*x - 1 = 0;
    # x = 0 is the unstable hilltop between them.
    root = math.sqrt(lam**2 + 4.0)
    return BenchmarkSystem(
        ident="double_well",
        params=params,
        num_states=2,
        rhs=partial(_double_well_rhs, delta=params["delta"], lam=lam),
        attractors=(
            PointAttractor("left_well", ((-lam - root) / 2.0, 0.0)),
            PointAttractor("right_well", ((-lam + root) / 2.0, 0.0)),
        ),
    )


def _build_mfcd(params):
    mu, a = params["mu"], params["a"]
    attractors = ()
    if a != 0 and -mu / a > 0:
        height = -mu / a
        attractors = (
            CycleAttractor(
                "orbit",
                radius=math.sqrt(height),
                axes=(0, 1),
                plane=((2, height),),
            ),
        )
    return BenchmarkSystem(
        ident="mfcd",
        params=params,
        num_states=3,
        rhs=partial(
            _mfcd_rhs,
            mu=mu,
            omega=params["omega"],
            lam=params["lam"],
            a=a,
        ),
        attractors=attractors,
    )


def _build_dual_limit_cycle(params):
    return BenchmarkSystem(
        ident="dual_limit_cycle",
        params=params,
        num_states=2,
        rhs=_dual_limit_cycle_rhs,
        attractors=(
            PointAttractor("origin", (0.0, 0.0)),
            CycleAttractor("outer_cycle", radius=2.0),
        ),
    )


def _build_lorenz(params):
    return BenchmarkSystem(
        ident="lorenz",
        params=params,
        num_states=3,
        rhs=partial(
            _lorenz_rhs,
            sigma=params["sigma"],
            rho=params["rho"],
            beta=params["beta"],
        ),
        attractors=(),
    )


_DEFAULTS = {
    "lho": {"delta": 1.0},
    "dnls": {"delta": 1.0},
    "two_attractor": {},
    "double_well": {"delta": 0.5, "lam": 1.3},
    "mfcd": {"mu": 0.1, "omega": 2.0, "lam": 6.0, "a": -0.1},
    "dual_limit_cycle": {},
    "lorenz": {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0},
}

_BUILDERS = {
    "lho": _build_lho,
    "dnls": _build_dnls,
    "two_attractor": _build_two_attractor,
    "double_well": _build_double_well,
    "mfcd": _build_mfcd,
    "dual_limit_cycle": _build_dual_limit_cycle,
    "lorenz": _build_lorenz,
}

SYSTEM_IDS = tuple(sorted(_DEFAULTS))


def make_system(ident: str, **overrides) -> BenchmarkSystem:
    """Instantiate a catalog system, optionally overriding parameters."""
    if ident not in _DEFAULTS:
        raise ValueError(f"unknown system {ident!r}; known: {', '.join(SYSTEM_IDS)}")
    params = dict(_DEFAULTS[ident])
    unknown = sorted(set(overrides) - set(params))
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {', '.join(unknown)} for system {ident!r}"
        )
    params.update({key: float(value) for key, value in overrides.items()})
    return _BUILDERS[ident](params)


def integrate(
    system: BenchmarkSystem,
    ic,
    t_span: tuple[float, float],
    num_samples: int,
    settings: IntegratorSettings | None = None,
) -> Trajectory:
    """Integrate a system and sample it on a uniform time grid.

    Raises
    ------
    IntegrationError
        If the solver fails or produces non-finite samples; the message
        reports how far the integration got.
    """
    if settings is None:
        settings = IntegratorSettings()
    ic = np.asarray(ic, dtype=float)
    if ic.shape != (system.num_states,):
        raise DimensionError(
            f"initial condition has shape {ic.shape}, system "
            f"{system.ident!r} expects ({system.num_states},)"
        )
    if not np.all(np.isfinite(ic)):
        raise ValueError("initial condition contains non-finite entries")
    t_start, t_end = float(t_span[0]), float(t_span[1])
    if not t_end > t_start:
        raise ValueError(f"t_span must increase, got ({t_start}, {t_end})")
    if num_samples < 2:
        raise ValueError(f"num_samples must be >= 2, got {num_samples}")

    t_eval = np.linspace(t_start, t_end, num_samples)
    kwargs = {}
    if settings.first_step is not None:
        kwargs["first_step"] = settings.first_step
    solution = solve_ivp(
        system.rhs,
        (t_start, t_end),
        ic,
        method="RK45",
        t_eval=t_eval,
        rtol=settings.rel_tol,
        atol=settings.abs_tol,
        max_step=settings.max_step,
        **kwargs,
    )
    if not solution.success:
        reached = solution.t[-1] if solution.t.size else t_start
        raise IntegrationError(
            f"integration of {system.ident!r} failed at t={reached:.6g}: "
            f"{solution.message}"
        )
    states = solution.y.T
    if not np.all(np.isfinite(states)):
        raise IntegrationError(
            f"integration of {system.ident!r} produced non-finite samples"
        )
    dt = (t_end - t_start) / (num_samples - 1)
    return Trajectory(states, dt=dt, t0=t_start)


def add_noise(trajectory: Trajectory, sigma_pct: float, seed: int) -> Trajectory:
    """Add seeded Gaussian noise scaled per channel.

    Each channel's noise standard deviation is ``sigma_pct`` percent of
    that channel's range in the clean data, so constant channels stay
    untouched and ``sigma_pct=0`` returns bit-identical values.
    """
    if not sigma_pct >= 0:
        raise ValueError(f"sigma_pct must be >= 0, got {sigma_pct}")
    rng = np.random.default_rng(seed)
    states = trajectory.states
    scale = (sigma_pct / 100.0) * (states.max(axis=0) - states.min(axis=0))
    noisy = states + rng.standard_normal(states.shape) * scale
    return replace(
        trajectory,
        states=noisy,
        provenance=Provenance.noisy(float(sigma_pct), seed),
    )
