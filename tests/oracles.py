"""Independent reference implementations used to pin expected values.

Everything in this file is deliberately naive: exhaustive enumeration
instead of combinatorics, Taylor series instead of library matrix
exponentials, explicit SVD assembly instead of LAPACK least-squares
drivers, double loops instead of vectorized error norms.  Slow and simple
on purpose, so the package can be checked against code that shares none
of its own paths.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.integrate import RK45, solve_ivp


def enumerate_monomial_exponents(num_vars: int, degree: int) -> set[tuple[int, ...]]:
    """All exponent tuples with 1 <= total degree <= degree.

    Walks the full (degree+1)**num_vars lattice and filters, making no
    combinatorial assumptions at all.
    """
    found = set()
    for combo in itertools.product(range(degree + 1), repeat=num_vars):
        if 1 <= sum(combo) <= degree:
            found.add(combo)
    return found


def count_monomials(num_vars: int, degree: int) -> int:
    return len(enumerate_monomial_exponents(num_vars, degree))


def eval_monomial(z: np.ndarray, exponents: tuple[int, ...]) -> float:
    value = 1.0
    for zi, ei in zip(z, exponents):
        value *= zi ** ei
    return value


def taylor_expm(a: np.ndarray, terms: int = 60) -> np.ndarray:
    """Matrix exponential by scaling and squaring on a plain Taylor sum."""
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, 1)
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
    b = a / 2.0 ** squarings
    total = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ b / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def svd_min_norm_solution(features: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Minimum-Frobenius-norm solution of ``solution @ features ~= targets``.

    Assembles the pseudo-inverse explicitly from an SVD of the feature
    matrix, truncating singular values at eps * max(shape) * s_max.
    """
    u, s, vt = np.linalg.svd(features, full_matrices=False)
    inv = np.zeros_like(s)
    if s.size:
        cutoff = np.finfo(float).eps * max(features.shape) * s[0]
        keep = s > cutoff
        inv[keep] = 1.0 / s[keep]
    pinv = (vt.T * inv) @ u.T
    return targets @ pinv


def normal_equation_solution(features: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Full-row-rank route through the normal equations, no SVD involved."""
    gram = features @ features.T
    return np.linalg.solve(gram, features @ targets.T).T


def loop_rrmse(predicted: np.ndarray, reference: np.ndarray, skip: int) -> np.ndarray:
    """Per-state relative RMSE over rows skip..K-1, written as bare loops."""
    num_rows, num_states = reference.shape
    compared = num_rows - skip
    scores = np.empty(num_states)
    for n in range(num_states):
        acc = 0.0
        for k in range(skip, num_rows):
            diff = predicted[k, n] - reference[k, n]
            acc += diff * diff
        mean_ref = 0.0
        for k in range(skip, num_rows):
            mean_ref += reference[k, n]
        mean_ref /= compared
        var = 0.0
        for k in range(skip, num_rows):
            var += (reference[k, n] - mean_ref) ** 2
        std = np.sqrt(var / compared)
        scores[n] = np.sqrt(acc / compared) / std
    return scores


def lho_closed_form(ic, damping: float, times: np.ndarray) -> np.ndarray:
    """Exact damped-oscillator solution via the Taylor matrix exponential."""
    a = np.array([[0.0, 1.0], [-1.0, -damping]])
    ic = np.asarray(ic, dtype=float)
    return np.stack([taylor_expm(a * t) @ ic for t in times])


def loop_iterate(seeds, steps, exponents, matrix, divergence_threshold=1e6):
    """Forecast loop lifting one monomial at a time and summing features
    with ``+=`` in feature order from a +0.0 start.

    Each monomial of degree >= 2 is its first variable times the monomial
    with that variable's exponent lowered by one, so rows must list every
    divisor before its multiples.  The window is rebuilt from the state
    history every step.  Returns (states, diverged_at) like
    ``iterate_batch``.
    """
    rows = [tuple(int(e) for e in row) for row in exponents]
    index_of = {row: j for j, row in enumerate(rows)}
    first_var = [next(i for i, e in enumerate(row) if e > 0) for row in rows]
    parent = []
    for row, var in zip(rows, first_var):
        reduced = list(row)
        reduced[var] -= 1
        parent.append(index_of.get(tuple(reduced), -1))
    seeds = np.asarray(seeds, dtype=float)
    n, delays, num_states = seeds.shape
    states = np.empty((n, delays + steps, num_states))
    states[:, :delays] = seeds
    diverged_at = np.full(n, -1, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(delays, delays + steps):
            stacked = states[:, t - delays:t][:, ::-1].reshape(n, -1)
            feats = np.empty((n, len(rows)))
            for j in range(len(rows)):
                feats[:, j] = stacked[:, first_var[j]]
                if parent[j] >= 0:
                    feats[:, j] *= feats[:, parent[j]]
            nxt = np.zeros((n, num_states))
            for j in range(len(rows)):
                nxt += feats[:, j:j + 1] * matrix[:, j]
            bad = ~np.isfinite(nxt).all(axis=1)
            bad |= np.abs(nxt).max(axis=1) > divergence_threshold
            fresh = bad & (diverged_at < 0)
            diverged_at[fresh] = t
            nxt[fresh] = np.nan
            states[:, t] = nxt
    return states, diverged_at


def _loop_captured(row, attractor, tol):
    """Capture test of one sample, written out coordinate by coordinate."""
    if hasattr(attractor, "location"):
        dist2 = 0.0
        for value, center in zip(row, attractor.location):
            dist2 += (value - center) ** 2
        return dist2 < tol * tol
    ax0, ax1 = attractor.axes
    radius = math.sqrt(row[ax0] ** 2 + row[ax1] ** 2)
    if not abs(radius - attractor.radius) < tol:
        return False
    return all(abs(row[axis] - value) < tol for axis, value in attractor.plane)


def loop_classify_series(states, attractors, tol, persistence):
    """First-capture label of one series, one attractor and one sample at
    a time: the winner completes ``persistence`` consecutive captures
    first, earlier catalog position breaks ties, and only samples before
    the first non-finite one count.  Returns the attractor's ident,
    ``"diverged"`` or ``"unresolved"``.
    """
    rows = [[float(v) for v in row] for row in states]
    first_bad = next(
        (k for k, row in enumerate(rows) if not all(math.isfinite(v) for v in row)),
        len(rows),
    )
    best_step = None
    best_ident = None
    for attractor in attractors:
        run = 0
        for step, row in enumerate(rows[:first_bad]):
            run = run + 1 if _loop_captured(row, attractor, tol) else 0
            if run >= persistence:
                if best_step is None or step < best_step:
                    best_step = step
                    best_ident = attractor.ident
                break
    if best_ident is not None:
        return best_ident
    return "diverged" if first_bad < len(rows) else "unresolved"


def solve_ivp_series(system, ic, t_span, num_samples, rel_tol, abs_tol):
    """scipy's ``solve_ivp`` (RK45) sampled at ``linspace(*t_span,
    num_samples)``, shape (num_samples, num_states); a failed or
    non-finite integration gives all NaN."""
    solution = solve_ivp(system.rhs, t_span, np.asarray(ic, dtype=float), method="RK45",
                         t_eval=np.linspace(*t_span, num_samples), rtol=rel_tol, atol=abs_tol)
    states = solution.y.T
    if not solution.success or not np.isfinite(states).all():
        states = np.full((num_samples, len(ic)), np.nan)
    return states


def per_cell_truth_labels(system, points, horizon, num_samples, tol, persistence,
                          rel_tol, abs_tol):
    """Truth label of each start point from its own ``solve_ivp`` run
    over ``(0, horizon)`` and the loop classifier above; a failed or
    non-finite integration is all NaN, so it is ``"diverged"``.
    """
    return [
        loop_classify_series(
            solve_ivp_series(system, point, (0.0, horizon), num_samples, rel_tol, abs_tol),
            system.attractors, tol, persistence,
        )
        for point in points
    ]


def _loop_weighted_sum(weights, terms):
    """``sum_j weights[j] * terms[j]``, added term by term in index order."""
    total = weights[0] * terms[0]
    for weight, term in zip(weights[1:], terms[1:]):
        total = total + weight * term
    return total


def _loop_rms(rows):
    return np.sqrt(_loop_weighted_sum(rows, rows)) / len(rows) ** 0.5


def loop_dormand_prince(rhs, starts, t_span, num_samples, rel_tol, abs_tol):
    """Batched Dormand-Prince 5(4) samples, shape (cells, num_samples,
    num_states), with every stage, error and dense-output sum formed one
    weighted term at a time.

    The same steps, step-size control, initial step and quartic dense
    output as ``odes._dormand_prince_blocks``, whose samples it pins
    bitwise: scipy's RK45 tableau, per-cell step sizes, failure below ten
    float spacings of the time (the rest of the cell is NaN), one block.
    """
    c, a, b, e, p = RK45.C, RK45.A, RK45.B, RK45.E, RK45.P
    safety, min_factor, max_factor, exponent = 0.9, 0.2, 10.0, -1 / 5
    t_start, t_end = t_span
    times = np.linspace(t_start, t_end, num_samples)
    y = np.array(starts, dtype=float).T
    cells = y.shape[1]
    t = np.full(cells, t_start)
    f = rhs(t, y)

    # Initial step of Solving ODEs I, II.4.
    scale = abs_tol + np.abs(y) * rel_tol
    d0, d1 = _loop_rms(y / scale), _loop_rms(f / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, t_end - t_start)
        d2 = _loop_rms((rhs(t + h0, y + h0 * f) - f) / scale) / h0
        h1 = np.where(
            (d1 <= 1e-15) & (d2 <= 1e-15),
            np.maximum(1e-6, h0 * 1e-3),
            (0.01 / np.maximum(d1, d2)) ** -exponent,
        )
    h_abs = np.minimum(np.minimum(100 * h0, h1), t_end - t_start)

    rejected = np.zeros(cells, dtype=bool)
    failed = np.zeros(cells, dtype=bool)
    emitted = np.zeros(cells, dtype=np.int64)
    t_old, h, y_old = t.copy(), np.ones(cells), y.copy()
    q = np.zeros((p.shape[1],) + y.shape)
    out = np.full((cells, num_samples, y.shape[0]), np.nan)

    def emit(rows):
        upto = np.searchsorted(times, t[rows], side="right")
        counts = upto - emitted[rows]
        cell = np.repeat(rows, counts)
        offset = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        sample = np.repeat(emitted[rows], counts) + offset
        x = (times[sample] - t_old[cell]) / h[cell]
        powers = [x]
        for _ in range(1, len(q)):
            powers.append(powers[-1] * x)
        values = h[cell] * _loop_weighted_sum(powers, q[:, :, cell]) + y_old[:, cell]
        out[cell, sample] = values.T
        emitted[rows] = upto

    emit(np.arange(cells))
    while True:
        rows = np.flatnonzero(~failed & (emitted < num_samples))
        if not rows.size:
            return out
        t0, y0, f0 = t[rows], y[:, rows], f[:, rows]
        min_step = 10 * np.abs(np.nextafter(t0, np.inf) - t0)
        size = np.where(rejected[rows], h_abs[rows], np.maximum(h_abs[rows], min_step))
        too_small = ~(size >= min_step)
        failed[rows[too_small]] = True
        live = ~too_small
        rows, t0, y0, f0, size = rows[live], t0[live], y0[:, live], f0[:, live], size[live]

        t1 = np.minimum(t0 + size, t_end)
        step = t1 - t0
        k = [f0]
        for stage in range(1, len(c)):
            dy = _loop_weighted_sum(a[stage, :stage], k) * step
            k.append(rhs(t0 + c[stage] * step, y0 + dy))
        y1 = y0 + step * _loop_weighted_sum(b, k)
        k.append(rhs(t1, y1))
        scale = abs_tol + np.maximum(np.abs(y0), np.abs(y1)) * rel_tol
        error = _loop_rms(_loop_weighted_sum(e, k) * step / scale)

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            factor = safety * error**exponent
        accept = error < 1
        grow = np.where(error == 0, max_factor, np.minimum(max_factor, factor))
        grow = np.where(rejected[rows], np.minimum(1.0, grow), grow)
        shrink = np.fmax(min_factor, factor)
        h_abs[rows] = step * np.where(accept, grow, shrink)
        rejected[rows] = ~accept

        done = rows[accept]
        t_old[done], h[done], y_old[:, done] = t0[accept], step[accept], y0[:, accept]
        k = [stage[:, accept] for stage in k]
        q[:, :, done] = [_loop_weighted_sum(p[:, j], k) for j in range(len(q))]
        t[done], y[:, done], f[:, done] = t1[accept], y1[:, accept], k[-1]
        emit(done)
