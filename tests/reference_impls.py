"""Independently coded references used as oracles by the tests.

These deliberately avoid the library's solver and projection internals so
that agreement between the two routes is meaningful.
"""

import itertools
import math

import numpy as np


def korpelevich_reference(T, project_fn, x0, alpha, iterations):
    """Plain deterministic extragradient recursion, one iterate per row."""
    x = np.array(x0, dtype=float)
    out = [x.copy()]
    for _ in range(iterations):
        z = project_fn(x - alpha * T(x))
        x = project_fn(x - alpha * T(z))
        out.append(x.copy())
    return np.array(out)


def project_ball_where(x, center, radius):
    """Ball projection with the factor r / max(||d||, 1e-300) where
    ||d|| > r and 1.0 elsewhere (a NaN norm compares false, so 1.0)."""
    d = np.asarray(x, dtype=float) - center
    nrm = np.sqrt(np.add.reduce(d * d, axis=-1, keepdims=True))
    return center + d * np.where(nrm > radius, radius / np.maximum(nrm, 1e-300), 1.0)


def project_simplex_bruteforce(x, scale=1.0):
    """Projection onto {y >= 0, sum y = scale} by active-set enumeration.

    For every candidate support S, the equality-constrained minimizer sets
    y_i = x_i - tau on S with tau = (sum_S x_i - scale)/|S|; keep candidates
    that are feasible and KKT-consistent, return the closest.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    best, best_d = None, np.inf
    for r in range(1, n + 1):
        for support in itertools.combinations(range(n), r):
            s = list(support)
            tau = (x[s].sum() - scale) / len(s)
            y = np.zeros(n)
            y[s] = x[s] - tau
            if np.any(y[s] < -1e-12):
                continue
            d = float(np.sum((y - x) ** 2))
            if d < best_d - 1e-15:
                best, best_d = y, d
    return best


def quadratic_gap_bruteforce(T_x, x, lower, upper, a, grid=401):
    """max over a box of <T(x), x-y> - a/2 ||x-y||^2 by dense grid search
    (2-d only); used to confirm the closed-form regularized gap."""
    g0 = np.linspace(lower[0], upper[0], grid)
    g1 = np.linspace(lower[1], upper[1], grid)
    best = -np.inf
    for y0 in g0:
        d0 = x[0] - y0
        vals = T_x[0] * d0 + T_x[1] * (x[1] - g1) - 0.5 * a * (d0 ** 2 + (x[1] - g1) ** 2)
        best = max(best, float(vals.max()))
    return best


def sample_count(theta, mu, a, b, k):
    """N_k = ceil(theta (k+mu)^(1+a) ln(k+mu)^(1+b)), at least 1, in scalar
    float arithmetic; a value within a relative 1e-9 of an integer counts as
    that integer."""
    v = theta * (k + mu) ** (1 + a) * math.log(k + mu) ** (1 + b)
    n = round(v)
    if abs(v - n) <= 1e-9 * max(1.0, abs(n)):
        return max(float(n), 1.0)
    return max(float(math.ceil(v)), 1.0)


def tail_scan(agents, horizon=10 ** 6, window=10, tol=1e-6):
    """Numeric summability scan: tabulate 1/N_k = sum_i 1/N_{k,i} for every
    k <= horizon (float counts, so nothing wraps) and accept when the last
    ``window`` indices add at most ``tol * max(1, total)``.

    ``agents`` is a list of (theta, mu, a, b) tuples.
    """
    k = np.arange(horizon + 1, dtype=float)
    columns = {}
    inv = np.zeros(horizon + 1)
    for agent in agents:
        if agent not in columns:
            theta, mu, a, b = agent
            v = theta * (k + mu) ** (1 + a) * np.log(k + mu) ** (1 + b)
            near = np.round(v)
            n = np.where(np.abs(v - near) <= 1e-9 * np.maximum(1.0, near), near, np.ceil(v))
            columns[agent] = 1.0 / np.maximum(n, 1.0)
        inv += columns[agent]
    total = float(inv.sum())
    return float(inv[horizon - window:].sum()) <= tol * max(1.0, total)


def fejer_audit_reference(trace, x_star, rel_tol=1e-9):
    """The quasi-Fejer audit one step at a time, as a Python loop over the
    recorded trace; returns (max_violation, max_rel_violation, violations)."""
    x_star = np.asarray(x_star, dtype=float)
    col = None
    for s, sol in enumerate(trace.tracked_solutions):
        if np.array_equal(sol, x_star):
            col = s
            break
    max_viol = max_rel = 0.0
    n_bad = 0
    d2 = np.sum((trace.iterates - x_star) ** 2, axis=1)
    for k in range(trace.n_steps):
        alpha = trace.alphas[k]
        rho_k = 1.0 - 6.0 * (trace.lipschitz_L * alpha) ** 2
        if col is not None:
            dM = trace.M[k + 1, col] - trace.M[k, col]
        else:
            dM = 2.0 * alpha * float((x_star - trace.z[k]) @ trace.eps2[k])
        dA = trace.A[k + 1] - trace.A[k]
        rhs = d2[k] - 0.5 * rho_k * trace.r2[k] + dM + dA
        viol = d2[k + 1] - rhs
        rel = viol / max(1.0, abs(rhs))
        if rel > max_rel:
            max_rel, max_viol = rel, viol
        if rel > rel_tol:
            n_bad += 1
    return max_viol, max_rel, n_bad


def diagnostic_sums_reference(trace):
    """A and M of a diagnostics trace, one step at a time from its recorded
    errors, as the recursions in the ``stochvi.solver`` docstring read."""
    K = trace.n_steps
    A = np.zeros(K + 1)
    M = np.zeros((K + 1, len(trace.tracked_solutions)))
    for k in range(K):
        alpha = float(trace.alphas[k])
        rho_k = 1.0 - 6.0 * (trace.lipschitz_L * alpha) ** 2
        A[k + 1] = A[k] + (8.0 + rho_k) * alpha ** 2 * float(trace.eps1_norm[k]) ** 2 \
            + 8.0 * alpha ** 2 * float(trace.eps2_norm[k]) ** 2
        for s, xstar in enumerate(trace.tracked_solutions):
            M[k + 1, s] = M[k, s] + 2.0 * alpha * float((xstar - trace.z[k]) @ trace.eps2[k])
    return A, M


def project_cartesian_per_factor(fset, x):
    """A Cartesian product's projection as one projection per factor, each
    on its own slice of the coordinates."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    start = 0
    for part, size in zip(fset.parts, fset.sizes):
        sl = slice(start, start + size)
        out[..., sl] = part.project(x[..., sl])
        start += size
    return out
