"""Benchmark dynamical systems, reference integration, and noise.

The catalog covers the standard planar test problems (a damped linear
oscillator, a damped cubic oscillator, a two-sink gradient-like flow, an
asymmetric double well), a three-dimensional mean-field model with a
limit cycle, a planar flow with two concentric limit cycles, and the
Lorenz system.  Each system is one row of ``_CATALOG``: its right-hand
side, state count, default parameters, and its attractors (descriptors
for basin classification) as a function of those parameters.

One integrator serves every caller: an adaptive Dormand-Prince 5(4)
pair, written out here with numpy only, that advances a batch of start
points at once, keeps every one on its own steps, and samples each from
its dense output on a uniform time grid.  A step keeps its seven stage
derivatives in one (stages, num_states, cells) workspace allocated once
per run, and forms each stage, the update, the error estimate and the
dense-output coefficients as one weighted sum of the stages, added in
stage order by the forecasting kernel's rule (``core._weighted_sum``),
with no array of products.  The cells still stepping advance on gathered
copies of their state, regathered only when one of them fails or passes
the block's last sample, and every step goes into a log whose samples
are evaluated from the dense output in one gather when the log fills or
the block ends.  Training and test series, a config's series of one span
and length, and whole basin grids each run as one batch; a series comes
out bitwise the same alone or batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .core import (
    DimensionError, IntegrationError, Provenance, Trajectory, _leading, _ordered_sum,
    _weighted_sum)

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
    """A catalog system with its parameters bound into ``rhs``."""

    ident: str
    params: dict
    num_states: int
    rhs: object
    attractors: tuple = ()


@dataclass(frozen=True)
class IntegratorSettings:
    """Tolerances for the adaptive integrator, each positive and finite."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


# Right-hand sides unpack the state row by row, so they also evaluate a
# (num_states, cells) array of states column by column, as the batched
# grid integrator needs.

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


def _double_well_wells(params):
    # Stable wells sit at the outer roots of x**2 + lam*x - 1 = 0;
    # x = 0 is the unstable hilltop between them.
    lam = params["lam"]
    root = math.sqrt(lam**2 + 4.0)
    return (
        PointAttractor("left_well", ((-lam - root) / 2.0, 0.0)),
        PointAttractor("right_well", ((-lam + root) / 2.0, 0.0)),
    )


def _mfcd_orbit(params):
    # The stable cycle x**2 + y**2 = z = -mu/a exists while that height
    # is positive.
    mu, a = params["mu"], params["a"]
    if not (a != 0 and -mu / a > 0):
        return ()
    height = -mu / a
    return (CycleAttractor("orbit", radius=math.sqrt(height), axes=(0, 1), plane=((2, height),)),)


_ORIGIN = PointAttractor("origin", (0.0, 0.0))

# One row per system: right-hand side, state count, default parameters
# (the right-hand side's keyword arguments), and its attractors as a
# function of the parameters.
_CATALOG = {
    "lho": (_lho_rhs, 2, {"delta": 1.0}, lambda params: (_ORIGIN,)),
    "dnls": (_dnls_rhs, 2, {"delta": 1.0}, lambda params: (_ORIGIN,)),
    "two_attractor": (_two_attractor_rhs, 2, {}, lambda params: (
        PointAttractor("left_sink", (-1.0, 0.0)), PointAttractor("right_sink", (1.0, 0.0)))),
    "double_well": (_double_well_rhs, 2, {"delta": 0.5, "lam": 1.3}, _double_well_wells),
    "mfcd": (_mfcd_rhs, 3, {"mu": 0.1, "omega": 2.0, "lam": 6.0, "a": -0.1}, _mfcd_orbit),
    "dual_limit_cycle": (_dual_limit_cycle_rhs, 2, {}, lambda params: (
        _ORIGIN, CycleAttractor("outer_cycle", radius=2.0))),
    "lorenz": (_lorenz_rhs, 3, {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0},
               lambda params: ()),
}

SYSTEM_IDS = tuple(sorted(_CATALOG))


def make_system(ident: str, **overrides) -> BenchmarkSystem:
    """Instantiate a catalog system, optionally overriding parameters."""
    if ident not in _CATALOG:
        raise ValueError(f"unknown system {ident!r}; known: {', '.join(SYSTEM_IDS)}")
    rhs, num_states, defaults, attractors = _CATALOG[ident]
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {', '.join(unknown)} for system {ident!r}"
        )
    params = {**defaults, **{key: float(value) for key, value in overrides.items()}}
    return BenchmarkSystem(ident, params, num_states, partial(rhs, **params), attractors(params))


def integrate(
    system: BenchmarkSystem,
    ic,
    t_span: tuple[float, float],
    num_samples: int,
    settings: IntegratorSettings | None = None,
) -> Trajectory:
    """Integrate a system and sample it on a uniform time grid.

    A one-point run of the batched Dormand-Prince 5(4) integrator below,
    sampled from its dense output at ``linspace(*t_span, num_samples)``.

    Raises
    ------
    IntegrationError
        If the solver fails or produces non-finite samples; the message
        reports how far the integration got.
    """
    return _integrate_series(system, [ic], t_span, num_samples, settings)[0]


def _check_span(t_span, num_samples):
    """A uniformly sampled span: it increases, its width is finite as a
    float, and it has at least two samples.  Returns its ends as floats."""
    t_start, t_end = float(t_span[0]), float(t_span[1])
    if not 0 < t_end - t_start < math.inf:
        raise ValueError(
            f"t_span must increase by a width finite as a float, got ({t_start}, {t_end})")
    if num_samples < 2:
        raise ValueError(f"num_samples must be >= 2, got {num_samples}")
    return t_start, t_end


def _integrate_series(system, ics, t_span, num_samples, settings):
    """``integrate`` for several initial conditions in one batch of
    ``_dormand_prince_blocks``; each series is bitwise the one it gives
    alone."""
    if settings is None:
        settings = IntegratorSettings()
    ics = [np.asarray(ic, dtype=float) for ic in ics]
    for ic in ics:
        if ic.shape != (system.num_states,):
            raise DimensionError(
                f"initial condition has shape {ic.shape}, system "
                f"{system.ident!r} expects ({system.num_states},)"
            )
        if not np.all(np.isfinite(ic)):
            raise ValueError("initial condition contains non-finite entries")
    t_start, t_end = _check_span(t_span, num_samples)
    blocks = _dormand_prince_blocks(
        system.rhs, ics, (t_start, t_end), num_samples, settings, num_samples
    )
    # Blocks are state-major; a copy makes each series row-major.
    samples = np.ascontiguousarray(next(blocks))
    finite = np.isfinite(samples).all(axis=(0, 2))
    if not finite.all():
        reached = np.linspace(t_start, t_end, num_samples)[finite.argmin()]
        raise IntegrationError(
            f"integration of {system.ident!r} failed at t={reached:.6g}: "
            "non-finite samples"
        )
    dt = (t_end - t_start) / (num_samples - 1)
    return [Trajectory(states, dt=dt, t0=t_start) for states in samples]


# The Dormand-Prince 5(4) pair (Dormand & Prince 1980) with Shampine's
# quartic dense output, and its step-size control (Hairer, Norsett &
# Wanner, Solving ODEs I, II.4-II.6).
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)
# The weights of each sum over the stages, (outputs, stages): stages
# 2..6, the update, the error estimate and the dense-output coefficients.
_WEIGHTS = [np.ascontiguousarray(weights) for weights in (
    [_A[stage:stage + 1, :stage] for stage in range(1, len(_C))] + [_B[None], _E[None], _P.T])]
_LOG_SIZE = 1024  # cell-steps logged before their samples are evaluated


def _rms(rows):
    """RMS over the state rows of a (num_states, cells) array.

    A cell of finite rows whose squares overflow takes the RMS of its rows
    divided by their largest magnitude, times that magnitude; every other
    cell keeps the plain sum of squares, bit for bit.  The overflow is
    the caller's to silence: ``_initial_step`` does, where an infinite
    norm would give a zero first step.  In the step loop an infinite and
    a huge finite error norm reject the step alike.
    """
    norm = np.sqrt(_ordered_sum(rows * rows)) / len(rows) ** 0.5
    over = np.isinf(norm)
    if np.count_nonzero(over):
        over &= np.isfinite(rows).all(axis=0)
        big = np.abs(rows[:, over]).max(axis=0, initial=0.0)
        scaled = rows[:, over] / big
        norm[over] = big * (np.sqrt(_ordered_sum(scaled * scaled)) / len(rows) ** 0.5)
    return norm


def _initial_step(rhs, t0, y0, f0, interval, rtol, atol):
    """The starting step size of Solving ODEs I, II.4, per cell."""
    scale = atol + np.abs(y0) * rtol
    with np.errstate(all="ignore"):  # an overflow gives a NaN step, which fails
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, interval)
        d2 = _rms((rhs(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
        h1 = np.where(
            (d1 <= 1e-15) & (d2 <= 1e-15),
            np.maximum(1e-6, h0 * 1e-3),
            (0.01 / np.maximum(d1, d2)) ** -_ERROR_EXPONENT,
        )
    return np.minimum(np.minimum(100 * h0, h1), interval)


def _dormand_prince_blocks(rhs, starts, t_span, num_samples, settings, block):
    """Integrate every start point over ``t_span`` on its own adaptive
    Dormand-Prince 5(4) steps and yield its samples at
    ``linspace(*t_span, num_samples)``, ``block`` samples at a time.

    Each cell chooses its initial step, error norm and step-size factors
    as in Solving ODEs I, II.4, and is sampled from the pair's quartic
    dense output (II.6); ``rhs`` sees the true times.
    States are held as (num_states, cells), so ``rhs`` runs once per
    stage for all cells.  Blocks have shape (cells, T, num_states) and
    are state-major in memory, (num_states, cells, T), as the
    forecasting kernel's are.
    After each block the caller may send a boolean mask over its cells;
    only the cells kept are integrated further.  A cell whose step size
    falls below ten times the spacing of floats at its time fails, and
    its remaining samples are NaN.  Each stage, the update, the error
    estimate and the dense-output coefficients are one weighted sum of
    the stage derivatives, added in stage order (``core._weighted_sum``),
    so a cell's samples are bitwise the same alone or in any batch.

    The cells still short of the block's last sample step together on
    gathered copies of their state, and the views of the step's
    workspaces are taken again only when that set changes: a cell
    reaches the block's last sample or fails.  Every step is written to
    a log of at most ``_LOG_SIZE`` cell-steps (or one step of every
    cell), and the samples the logged steps cover are evaluated in one
    gather when the log fills or the block ends.
    """
    rtol, atol = settings.rel_tol, settings.abs_tol
    t_start, t_end = t_span
    times = np.linspace(t_start, t_end, num_samples)
    y = np.array(starts, dtype=float).T
    num_states, cells = y.shape
    t = np.full(cells, t_start)
    with np.errstate(all="ignore"):  # a start whose derivative overflows fails
        f = rhs(t, y)
    h_abs = _initial_step(rhs, t, y, f, t_end - t_start, rtol, atol)
    rejected = np.zeros(cells, dtype=bool)
    failed = np.zeros(cells, dtype=bool)
    # Each cell's last accepted step, for its dense output.  Before the
    # first one, a step from one float below the start time with zero
    # coefficients, which evaluates to the start point, covers sample 0.
    t_old, h, y_old = np.full(cells, np.nextafter(t_start, -np.inf)), np.ones(cells), y.copy()
    q = np.zeros((_P.shape[1],) + y.shape)
    # The stage derivatives, (stages, num_states, cells), live in a
    # workspace sized for the first step (``core._leading``).
    stage_space = np.empty(len(_E) * y.size)
    # The step log: each logged step's cell, start time, size, start state,
    # dense-output coefficients and the cell's time after it, which is its
    # start time if the step was rejected, so that it covers no sample.
    capacity = max(_LOG_SIZE, cells)
    log = (np.empty(capacity, dtype=np.int64), np.empty(capacity), np.empty(capacity),
           np.empty((num_states, capacity)), np.empty(q.shape[:2] + (capacity,)),
           np.empty(capacity))

    def emit(out, first, stop, cells, starts, sizes, states, coefficients, ends):
        """Write into ``out``, the block of samples ``first .. stop - 1``,
        the samples each step covers, those in (start, end] of its cell,
        from the step's dense output."""
        lo = np.maximum(np.searchsorted(times, starts, side="right"), first)
        upto = np.minimum(np.searchsorted(times, ends, side="right"), stop)
        counts = np.maximum(upto - lo, 0)
        step = np.repeat(np.arange(len(counts)), counts)
        sample = np.arange(len(step)) - np.repeat(np.cumsum(counts) - counts - lo, counts)
        x = (times[sample] - starts[step]) / sizes[step]
        # Powers x, x**2, ... of the dense output, each the last times x.
        terms = coefficients.take(step, axis=2)
        power = x
        for coefficient in terms:
            coefficient *= power
            power = power * x
        values = sizes[step] * _ordered_sum(terms) + states.take(step, axis=1)
        out[:, cells[step], sample - first] = values

    for first in range(0, num_samples, block):
        stop = min(first + block, num_samples)
        t_stop = times[stop - 1]
        out = np.full((num_states, len(t), stop - first), np.nan)
        logged = 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            emit(out, first, stop, np.arange(len(t)), t_old, h, y_old, q, t)
            while True:
                rows = (~failed & (t < t_stop)).nonzero()[0]
                if not rows.size:
                    break
                # The active cells' state, and each weighted sum over the
                # stages, which sees them as (stages, num_states * m).
                m = rows.size
                t0, y0, f0 = t[rows], y[:, rows], f[:, rows]
                proposed, retried = h_abs[rows], rejected[rows]
                k = _leading(stage_space, (len(_E), num_states, m))
                flat = k.reshape(len(k), -1)
                *stage_sums, update, estimate, dense = [
                    _weighted_sum(weights, flat[:weights.shape[1]]) for weights in _WEIGHTS]
                while True:
                    min_step = 10 * np.abs(np.nextafter(t0, np.inf) - t0)
                    size = np.where(retried, proposed, np.maximum(proposed, min_step))
                    too_small = ~(size >= min_step)
                    if np.count_nonzero(too_small):  # cheaper than .any() on a few cells
                        failed[rows[too_small]] = True
                        break
                    t1 = np.minimum(t0 + size, t_end)
                    step = t1 - t0
                    k[0] = f0
                    stage_times = t0 + _C[1:, None] * step
                    for stage, stage_sum in enumerate(stage_sums, 1):
                        dy = stage_sum().reshape(num_states, m) * step
                        k[stage] = rhs(stage_times[stage - 1], y0 + dy)
                    y1 = y0 + step * update().reshape(num_states, m)
                    k[-1] = rhs(t1, y1)
                    scale = atol + np.maximum(np.abs(y0), np.abs(y1)) * rtol
                    error = _rms(estimate().reshape(num_states, m) * step / scale)
                    factor = _SAFETY * error**_ERROR_EXPONENT
                    # Every cell's coefficients; a rejected step's stages may
                    # be non-finite, and it covers no sample.
                    coefficients = dense().reshape(-1, num_states, m)
                    accept = error < 1
                    grow = np.where(error == 0, _MAX_FACTOR, np.minimum(_MAX_FACTOR, factor))
                    grow = np.where(retried, np.minimum(1.0, grow), grow)
                    shrink = np.fmax(_MIN_FACTOR, factor)  # a NaN error shrinks by the minimum
                    proposed = step * np.where(accept, grow, shrink)
                    retried = ~accept
                    t_next = np.where(accept, t1, t0)

                    if logged + m > capacity:
                        emit(out, first, stop, *(entries[..., :logged] for entries in log))
                        logged = 0
                    for entries, values in zip(log, (rows, t0, step, y0, coefficients, t_next)):
                        entries[..., logged:logged + m] = values
                    logged += m
                    past = t_next >= t_stop
                    leaving = np.count_nonzero(past)
                    if leaving:
                        # A cell past the block keeps its last step for the
                        # next block's first samples.
                        ended = rows[past]
                        t_old[ended], h[ended] = t0[past], step[past]
                        y_old[:, ended], q[:, :, ended] = y0[:, past], coefficients[..., past]
                    t0, y0, f0 = t_next, np.where(accept, y1, y0), np.where(accept, k[-1], f0)
                    if leaving:
                        break
                t[rows], y[:, rows], f[:, rows] = t0, y0, f0
                h_abs[rows], rejected[rows] = proposed, retried
            emit(out, first, stop, *(entries[..., :logged] for entries in log))
        keep = yield out.transpose(1, 2, 0)
        if keep is not None:
            t, h_abs, rejected, failed, t_old, h, y, f, y_old, q = (
                v[..., keep] for v in (t, h_abs, rejected, failed, t_old, h, y, f, y_old, q)
            )


def _check_noise(sigma_pct, seed):
    if not sigma_pct >= 0:
        raise ValueError(f"sigma_pct must be >= 0, got {sigma_pct}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def add_noise(trajectory: Trajectory, sigma_pct: float, seed: int) -> Trajectory:
    """Add seeded Gaussian noise scaled per channel.

    Each channel's noise standard deviation is ``sigma_pct`` percent of
    that channel's range in the clean data, so constant channels stay
    untouched and ``sigma_pct=0`` returns bit-identical values.
    """
    _check_noise(sigma_pct, seed)
    rng = np.random.default_rng(seed)
    states = trajectory.states
    scale = (sigma_pct / 100.0) * (states.max(axis=0) - states.min(axis=0))
    noisy = states + rng.standard_normal(states.shape) * scale
    return replace(
        trajectory,
        states=noisy,
        provenance=Provenance.noisy(float(sigma_pct), seed),
    )
