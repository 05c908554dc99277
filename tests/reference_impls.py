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
