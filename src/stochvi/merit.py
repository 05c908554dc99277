"""Merit functions that vanish exactly on the solution set.

All of them take the closed-form mean operator.  Without one, ``run``
records no r^2 and has no residual floor, and the only merit estimated is
an experiment's D-gap: the harness takes T from a high-accuracy batch-mean
surrogate and labels the output "estimated" (see
:func:`stochvi.harness.effective_mean_operator`).  Each
maps points of shape ``(..., n)`` to one value per row, bit for bit the
single-point value (the mean-operator contract is in :mod:`stochvi.core`).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameters, NoKnownSolutions
from .projection import FeasibleSet, project


def natural_residual_sq(T, fset: FeasibleSet, x, alpha: float, t=None):
    """Squared natural residual ||x - P[x - alpha T(x)]||^2; ``t``, if
    given, is T(x) as the caller already evaluated it.

    Zero exactly at solutions: x solves the problem iff x is a fixed point
    of the projected step, for any alpha > 0.
    """
    if not alpha > 0:
        raise InvalidParameters("alpha must be positive")
    x = np.asarray(x, dtype=float)
    t = np.asarray(T(x) if t is None else t, dtype=float)
    diff = x - project(fset, x - alpha * t)
    return np.vecdot(diff, diff)


def regularized_gap(T, fset: FeasibleSet, x, a: float, t=None):
    """g_a(x) = max_{y in X} { <T(x), x - y> - (a/2) ||x - y||^2 }; ``t``,
    if given, is T(x) as the caller already evaluated it.

    The maximizer of the concave quadratic is y = P[x - T(x)/a], so one
    projection evaluates the gap exactly; no inner loop is needed.
    """
    if not a > 0:
        raise InvalidParameters("gap parameter a must be positive")
    x = np.asarray(x, dtype=float)
    t = np.asarray(T(x) if t is None else t, dtype=float)
    d = x - project(fset, x - t / a)
    return np.vecdot(t, d) - 0.5 * a * np.vecdot(d, d)


def d_gap(T, fset: FeasibleSet, x, a: float, b: float):
    """g_a(x) - g_b(x) for b > a > 0: nonnegative, zero exactly on solutions,
    finite on the whole space whether or not X is bounded.  T is evaluated
    once, for both gaps."""
    if not b > a > 0:
        raise InvalidParameters("d-gap requires b > a > 0")
    x = np.asarray(x, dtype=float)
    t = np.asarray(T(x), dtype=float)
    return regularized_gap(T, fset, x, a, t=t) - regularized_gap(T, fset, x, b, t=t)


def anchor(problem):
    """x^ = P_{X*}(0), the point of the solution set X* nearest the origin:
    the x* of ``trace.M`` and of the two probes."""
    if problem.solution_set is None:
        raise NoKnownSolutions("problem carries no solution set")
    return project(problem.solution_set, np.zeros(problem.dimension))


def distance_sq_to_solutions(problem, x):
    """||x - P_{X*}(x)||^2 over the last axis, X* the problem's ``solution_set``."""
    if problem.solution_set is None:
        raise NoKnownSolutions("problem carries no solution set")
    x = np.asarray(x, dtype=float)
    d = x - project(problem.solution_set, x)
    return np.vecdot(d, d)
