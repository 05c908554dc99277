"""Variance-reduced stochastic extragradient iteration.

One iteration from x^k draws N_k samples per stage and projects twice:

    z^k     = P[ x^k - (alpha_k / N_k) sum_j F(xi_j^k,  x^k) ]
    x^(k+1) = P[ x^k - (alpha_k / N_k) sum_j F(eta_j^k, z^k) ]

with fresh, independent sample sets per stage.  On a Cartesian problem the
projection splits blockwise; under centralized sampling all blocks share one
draw set per stage (and the trace coincides bit for bit with the monolithic
iteration), under distributed sampling each block consumes its own stream of
N_{k,i} draws and is billed separately.

When diagnostics are enabled and the closed-form mean operator exists, the
realized stochastic errors eps1 = mean - T(x^k) and eps2 = mean - T(z^k) are
recorded together with the two bookkeeping sequences

    A_(k+1) = A_k + (8 + rho_k) alpha_k^2 ||eps1||^2 + 8 alpha_k^2 ||eps2||^2
    M_(k+1)(x*) = M_k(x*) + 2 <x* - z^k, alpha_k eps2>,

where rho_k = 1 - 6 L^2 alpha_k^2, which feed the pathwise recursion audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# derive_stream, validate and project are not called here, but they stay
# module globals of the solver: perfbench/tracing.py rebinds them at these names.
from .core import RunPlan, derive_stream, streams, validate  # noqa: F401
from .errors import (
    DimensionMismatch,
    InvalidParameters,
    MissingDiagnostics,
    NoKnownSolutions,
    NoMeanOperator,
    OracleFailure,
)
from .merit import distance_sq_to_solutions, natural_residual_sq
from .projection import project  # noqa: F401


def write_rows_csv(path, rows):
    """Write a list of homogeneous dicts as CSV with repr-formatted floats."""
    header = list(rows[0])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(",".join(
                repr(float(r[h])) if isinstance(r[h], float) else str(r[h])
                for h in header) + "\n")


@dataclass
class RunTrace:
    """Per-iteration record of one replication.

    Arrays indexed by iterate (length K+1): ``iterates``, ``r2``, ``dist2``,
    ``A``, ``M`` (one column per tracked solution), ``cum_calls``.
    Arrays indexed by step (length K): ``z``, ``eps1_norm``, ``eps2_norm``,
    ``eps2`` vectors, ``sizes`` (per-agent draw counts), ``alphas``.
    Diagnostics-only arrays are None when the run was recorded without them.
    """

    iterates: np.ndarray
    r2: np.ndarray | None
    dist2: np.ndarray | None
    cum_calls: np.ndarray
    sizes: np.ndarray
    alphas: np.ndarray
    replication: int
    z: np.ndarray | None = None
    eps1_norm: np.ndarray | None = None
    eps2_norm: np.ndarray | None = None
    eps2: np.ndarray | None = None
    A: np.ndarray | None = None
    M: np.ndarray | None = None
    tracked_solutions: tuple = ()
    lipschitz_L: float = 1.0
    stopped_early: bool = False

    @property
    def n_steps(self):
        return self.iterates.shape[0] - 1

    def final_iterate(self):
        return self.iterates[-1]

    def to_csv(self, path):
        """Write the per-iterate columns (k, r2, dist2, eps1_norm, eps2_norm,
        A, M_0..M_s, cum_calls); step-indexed columns are padded with nan at
        k = 0 so every row describes iterate x^k."""
        K = self.n_steps
        nan = np.full(K + 1, np.nan)

        def pad(step_arr):
            if step_arr is None:
                return nan
            return np.concatenate([[np.nan], step_arr])

        cols = {"r2": self.r2 if self.r2 is not None else nan,
                "dist2": self.dist2 if self.dist2 is not None else nan,
                "eps1_norm": pad(self.eps1_norm),
                "eps2_norm": pad(self.eps2_norm),
                "A": self.A if self.A is not None else nan}
        if self.M is not None:
            for s in range(self.M.shape[1]):
                cols[f"M_{s}"] = self.M[:, s]
        cols["cum_calls"] = self.cum_calls
        write_rows_csv(path, [{"k": row, **{h: float(c[row]) for h, c in cols.items()}}
                              for row in range(K + 1)])

    def summary(self):
        out = {
            "replication": self.replication,
            "iterations": self.n_steps,
            "cum_calls": int(self.cum_calls[-1]),
            "stopped_early": self.stopped_early,
            "final_iterate": [float(v) for v in self.final_iterate()],
        }
        if self.r2 is not None:
            out["final_r2"] = float(self.r2[-1])
        if self.dist2 is not None:
            out["final_dist2"] = float(self.dist2[-1])
        return out


def _stepper(plan: RunPlan):
    """``advance(replication, k, x, t=None) -> (z, g1, g2, x_next, t, tz)``:
    iteration k of the plan from ``x``, with the prediction point z^k, the
    two stage averages and the T(x) and T(z^k) the stages used (None without
    a mean operator); ``t``, if given, is T(x) as the caller evaluated it.
    ``run`` and ``martingale_probe`` both advance through it.

    A stage draws each of its draw sets on its own stream and bills N_{k,i}
    calls for it, whether the average is T plus an error drawn from the
    exact law or that of the draws themselves (see ``ProblemInstance.route``,
    resolved here once per run); the plan's ``cum_calls`` holds the sums.
    Each set's average fills its block of the stage mean.  A non-finite
    average raises.  When the problem has a mean operator, a stage
    evaluates T once at its point and hands it to every draw set.
    """
    problem, rows, alphas = plan.problem, plan.rows, plan.alphas
    T = problem.mean_operator
    stream, proj = streams(plan.config.master_seed), problem.feasible_set.project
    sets = tuple((i, slice(None) if sl is None else sl, problem.route(sl))
                 for i, sl in plan.draw_sets)
    empty, isfinite, every = np.empty, np.isfinite, np.logical_and.reduce

    def stage_mean(replication, k, stage, point, t):
        mean = empty(problem.dimension)
        for (i, sl, route), size in zip(sets, rows[k]):
            mean[sl] = route(stream(replication, k, stage, i), point, size, t)
        if not every(isfinite(mean)):
            raise OracleFailure(
                f"oracle average is not finite at iteration {k}, stage {stage}")
        return mean

    def advance(replication, k, x, t=None):
        alpha = alphas[k]
        if t is None and T is not None:
            t = T(x)
        g1 = stage_mean(replication, k, 1, x, t)
        z = proj(x - alpha * g1)
        tz = None if T is None else T(z)
        g2 = stage_mean(replication, k, 2, z, tz)
        return z, g1, g2, proj(x - alpha * g2), t, tz

    return advance


def _pow2(v):
    """Squares as scalar ``** 2`` (libm ``pow``) gives them; an array's
    ``** 2`` multiplies, which differs in the last bit about once in 1000."""
    return np.float_power(v, 2)


def run(plan: RunPlan, replication: int = 0, x0=None) -> RunTrace:
    """Execute the plan's iteration for ``max_iterations`` steps (early stop
    once the squared natural residual falls below ``config.residual_floor``).

    Deterministic given (master_seed, replication): traces are bit-identical
    across reruns and across serial or concurrent execution.  The plan comes
    from ``validate``, once for any number of replications.  T is evaluated
    once per point: T(x^k) serves the residual and the first stage, T(z^k)
    the second, and both the diagnostics.
    """
    problem, config = plan.problem, plan.config
    n, K = problem.dimension, config.max_iterations
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatch(f"x0 must have shape ({n},)")
    T, fset, floor, alphas = (problem.mean_operator, problem.feasible_set,
                              config.residual_floor, plan.alphas)
    residual_sq, advance = natural_residual_sq, _stepper(plan)
    record = config.diagnostics and T is not None  # only diagnostics read the steps
    x = fset.project(x)  # iterates live in X from the start
    iterates, r2, steps = [x], [], []
    stopped, t = False, None
    for k in range(K + 1):
        if T is not None:  # the residual floor reads r^2 before each step
            t = T(x)
            r2.append(residual_sq(T, fset, x, alphas[k], t=t))
            stopped = bool(k < K and r2[-1] <= floor)
        if k == K or stopped:
            break
        z, g1, g2, x, t, tz = advance(replication, k, x, t)
        if record:
            steps.append((z, g1, g2, t, tz))
        iterates.append(x)

    iterates = np.array(iterates)
    n_steps = len(iterates) - 1
    has_dist = bool(problem.known_solutions) or problem.solution_set_is_feasible_set
    trace = RunTrace(
        iterates=iterates,
        r2=np.array(r2) if T is not None else None,
        dist2=distance_sq_to_solutions(problem, iterates) if has_dist else None,
        cum_calls=plan.cum_calls[:n_steps + 1].copy(),
        sizes=plan.sizes[:n_steps].copy(),
        alphas=np.array(alphas[:n_steps]),
        replication=replication,
        lipschitz_L=problem.lipschitz_L,
        stopped_early=stopped,
    )
    if record:
        _record_diagnostics(trace, np.array(steps, dtype=float).reshape(n_steps, 5, n),
                            problem.known_solutions)
    return trace


def _record_diagnostics(trace: RunTrace, steps, track):
    """Realized errors and the A and M sums (module docstring) from each
    step's (z, g1, g2, T(x^k), T(z^k)).  ``np.cumsum`` adds in order, and
    A_(k+1) adds its two terms one after the other, so A is a running sum of
    both, interleaved."""
    z, g1, g2, t, tz = steps.swapaxes(0, 1)
    e1, e2 = g1 - t, g2 - tz
    alpha = trace.alphas
    rho = 1.0 - 6.0 * _pow2(trace.lipschitz_L * alpha)
    trace.z, trace.eps2 = z, e2
    trace.eps1_norm, trace.eps2_norm = np.sqrt(np.vecdot(e1, e1)), np.sqrt(np.vecdot(e2, e2))
    dA = np.zeros(2 * len(alpha) + 1)
    dA[1::2] = (8.0 + rho) * _pow2(alpha) * _pow2(trace.eps1_norm)
    dA[2::2] = 8.0 * _pow2(alpha) * _pow2(trace.eps2_norm)
    trace.A = np.cumsum(dA)[::2]
    dM = np.zeros((len(alpha) + 1, len(track)))
    for s, xstar in enumerate(track):
        dM[1:, s] = 2.0 * alpha * np.vecdot(xstar - z, e2)
    trace.M = np.cumsum(dM, axis=0)
    trace.tracked_solutions = track


@dataclass(frozen=True)
class FejerAuditReport:
    """Outcome of the pathwise recursion audit.

    For every step the audit checks

        ||x^(k+1) - x*||^2 <= ||x^k - x*||^2 - (rho_k / 2) r_k^2
                              + (M_(k+1) - M_k) + (A_(k+1) - A_k)

    with the recorded realized errors; violations are measured relative to
    max(1, |rhs|).
    """

    max_violation: float
    max_rel_violation: float
    n_violations: int
    n_steps: int
    tolerance: float

    @property
    def passed(self):
        return self.n_violations == 0

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"{status}: {self.n_violations}/{self.n_steps} steps beyond "
                f"rel tol {self.tolerance:g} (max rel violation "
                f"{self.max_rel_violation:.3e})")


def fejer_audit(trace: RunTrace, x_star, rel_tol: float = 1e-9) -> FejerAuditReport:
    """Audit the per-step quasi-Fejer inequality along a recorded trace.

    ``x_star`` may be any solution: tracked solutions reuse the recorded M
    column, other points recompute the martingale increment from the stored
    z and eps2 vectors.
    """
    if trace.z is None or trace.eps2 is None or trace.A is None:
        raise MissingDiagnostics("fejer_audit needs a trace recorded with diagnostics")
    x_star = np.asarray(x_star, dtype=float)
    alpha = trace.alphas
    col = next((s for s, sol in enumerate(trace.tracked_solutions)
                if np.array_equal(sol, x_star)), None)
    if col is not None:
        dM = np.diff(trace.M[:, col])
    else:
        dM = 2.0 * alpha * np.vecdot(x_star - trace.z, trace.eps2)
    d2 = np.sum((trace.iterates - x_star) ** 2, axis=1)
    rho = 1.0 - 6.0 * _pow2(trace.lipschitz_L * alpha)
    rhs = d2[:-1] - 0.5 * rho * trace.r2[:-1] + dM + np.diff(trace.A)
    viol = d2[1:] - rhs
    rel = viol / np.maximum(1.0, np.abs(rhs))
    worst = int(np.argmax(rel)) if rel.size else 0
    positive = rel.size > 0 and rel[worst] > 0.0
    return FejerAuditReport(
        max_violation=float(viol[worst]) if positive else 0.0,
        max_rel_violation=float(rel[worst]) if positive else 0.0,
        n_violations=int(np.sum(rel > rel_tol)), n_steps=trace.n_steps, tolerance=rel_tol)


@dataclass(frozen=True)
class MartingaleProbeResult:
    """Empirical mean of the martingale increment over independent steps;
    the increment has zero conditional mean, so |mean| <= 4 stderr."""

    mean: float
    stderr: float
    replications: int

    @property
    def passed(self):
        return abs(self.mean) <= 4.0 * self.stderr or self.stderr == 0.0

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"{status}: |mean dM| = {abs(self.mean):.4e} vs 4 stderr = "
                f"{4.0 * self.stderr:.4e} over {self.replications} steps")


def martingale_probe(plan: RunPlan, x, replications: int,
                     x_star=None) -> MartingaleProbeResult:
    """Run independent single steps of the plan from ``x`` and test E[dM] = 0.

    dM = 2 <x* - z, alpha eps2> where eps2 is the correction-stage error;
    its conditional mean vanishes because the second-stage samples are
    independent of everything realized before them.  Its standard error
    needs at least two replications.
    """
    problem = plan.problem
    if replications < 2:
        raise InvalidParameters("martingale probe needs at least 2 replications")
    if problem.mean_operator is None:
        raise NoMeanOperator("martingale probe needs the closed-form mean operator")
    if x_star is None:
        if not problem.known_solutions:
            raise NoKnownSolutions("martingale probe needs a reference solution")
        x_star = problem.known_solutions[0]
    x_star = np.asarray(x_star, dtype=float)
    x = np.asarray(x, dtype=float)
    advance, t = _stepper(plan), problem.mean_operator(x)
    steps = [advance(r, 0, x, t) for r in range(replications)]
    z, _, g2, _, _, tz = (np.array(v, dtype=float) for v in zip(*steps))
    e2 = g2 - tz
    deltas = 2.0 * plan.alphas[0] * np.vecdot(x_star - z, e2)
    mean = float(np.mean(deltas))
    stderr = float(np.std(deltas, ddof=1) / math.sqrt(replications))
    return MartingaleProbeResult(mean=mean, stderr=stderr, replications=replications)
