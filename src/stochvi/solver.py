"""Variance-reduced stochastic extragradient iteration.

One iteration from x^k draws N_k samples per stage and projects twice:

    z^k     = P[ x^k - (alpha_k / N_k) sum_j F(xi_j^k,  x^k) ]
    x^(k+1) = P[ x^k - (alpha_k / N_k) sum_j F(eta_j^k, z^k) ]

with fresh, independent sample sets per stage.  On a Cartesian problem the
projection splits blockwise; under centralized sampling all blocks share one
draw set per stage (and the trace coincides bit for bit with the monolithic
iteration), under distributed sampling each block consumes its own stream of
N_{k,i} draws and is billed separately.

The replications of a run advance in lockstep, as the rows of one (R, n)
array: each iteration evaluates T, the residual and each projection once
for all rows, and each row draws from the streams keyed by its own
replication index, so a row's trace is bit for bit the trace of that
replication run alone.

When diagnostics are enabled and the closed-form mean operator exists, the
realized stochastic errors eps1 = mean - T(x^k) and eps2 = mean - T(z^k) are
recorded together with the two bookkeeping sequences

    A_(k+1) = A_k + (8 + rho_k) alpha_k^2 ||eps1||^2 + 8 alpha_k^2 ||eps2||^2
    M_(k+1)(x*) = M_k(x*) + 2 <x* - z^k, alpha_k eps2>,

where rho_k = 1 - 6 L^2 alpha_k^2, which feed the pathwise recursion audit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Integral
from operator import index
from pathlib import Path
from typing import NamedTuple

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


def write_table(path, columns):
    """Write ``{header: column}`` as CSV, one line per index: floats as
    ``repr(float(v))``, anything else by ``str``.  Columns of unequal
    length raise ``ValueError``.  Both writers make the file's directory."""
    cells = [[repr(float(v)) if isinstance(v, float) else str(v) for v in column]
             for column in columns.values()]
    lines = [",".join(row) + "\n" for row in zip(*cells, strict=True)]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(lines)


def write_json(path, doc):
    """Write ``doc`` as JSON, indented by two spaces with sorted keys."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


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
        nan = np.full(self.n_steps + 1, np.nan)
        given = lambda v: nan if v is None else v
        pad = lambda v: nan if v is None else np.concatenate([[np.nan], v])
        M = () if self.M is None else self.M.T
        write_table(path, {
            "k": range(len(nan)), "r2": given(self.r2), "dist2": given(self.dist2),
            "eps1_norm": pad(self.eps1_norm), "eps2_norm": pad(self.eps2_norm),
            "A": given(self.A), **{f"M_{s}": column for s, column in enumerate(M)},
            "cum_calls": self.cum_calls.astype(float)})

    def summary(self):
        out = {
            "replication": self.replication,
            "iterations": self.n_steps,
            "cum_calls": int(self.cum_calls[-1]),
            "stopped_early": self.stopped_early,
            "final_iterate": self.final_iterate().tolist(),
        }
        if self.r2 is not None:
            out["final_r2"] = float(self.r2[-1])
        if self.dist2 is not None:
            out["final_dist2"] = float(self.dist2[-1])
        return out


class Ensemble(NamedTuple):
    """The traces of one lockstep run, one per replication in the order
    given.  ``cum_calls[k]`` is the oracle calls the ensemble billed before
    iteration k, counted where the engine hands each stage's sizes to the
    route (so it is not read from the traces or the plan); a stopped row
    bills nothing more.  ``n_steps`` is the steps of every row, summed."""

    traces: list
    cum_calls: np.ndarray

    @property
    def n_steps(self):
        return sum(t.n_steps for t in self.traces)


def _lockstep(plan: RunPlan):
    """``advance(replications, k, X, TX) -> (Z, G1, G2, X_next, TZ,
    billed)``: iteration k of the plan for every row of ``X``, row r on the
    streams of ``replications[r]``, with the prediction points, the two
    stage averages, the T(Z) the second stage used (None without a mean
    operator) and the calls billed.  ``TX`` is T(X) as the caller evaluated
    it, or None without a mean operator.  ``run`` and ``martingale_probe``
    both advance through it.

    T(Z) is evaluated once for all rows and each projection is one
    call.  A stage makes one call of the route (``ProblemInstance.route``,
    resolved here once) per draw set, which draws each row on that row's
    own stream, keyed by ``core.streams``, and bills N_{k,i} calls per row;
    a row's average is thus the one a run of that replication alone draws,
    bit for bit.  A non-finite average raises.
    """
    problem, rows, alphas = plan.problem, plan.rows, plan.alphas
    T = problem.mean_operator
    keyed = streams(plan.config.master_seed)
    proj = problem.feasible_set.project
    sets = tuple((i, sl, problem.route(sl)) for i, sl in plan.draw_sets)
    empty, isfinite, every = np.empty, np.isfinite, np.logical_and.reduce

    def stage_mean(replications, k, stage, P, TP):
        mean, billed = empty(P.shape), 0
        for (i, sl, route), size in zip(sets, rows[k]):
            mean[:, sl] = route(keyed(replications, k, stage, i), P, size, TP)
            billed += size * len(mean)
        if not every(isfinite(mean), axis=None):
            raise OracleFailure(
                f"oracle average is not finite at iteration {k}, stage {stage}")
        return mean, billed

    def advance(replications, k, X, TX):
        alpha = alphas[k]
        G1, billed1 = stage_mean(replications, k, 1, X, TX)
        Z = proj(X - alpha * G1)
        TZ = None if T is None else T(Z)
        G2, billed2 = stage_mean(replications, k, 2, Z, TZ)
        return Z, G1, G2, proj(X - alpha * G2), TZ, billed1 + billed2

    return advance


def _pow2(v):
    """Squares as scalar ``** 2`` (libm ``pow``) gives them; an array's
    ``** 2`` multiplies, which differs in the last bit about once in 1000."""
    return np.float_power(v, 2)


def run(plan: RunPlan, replication=0, x0=None):
    """Execute the plan's iteration from ``x0`` for ``max_iterations`` steps
    (early stop once the squared natural residual falls below
    ``config.residual_floor``).

    ``replication`` is one index, and then ``run`` returns its
    :class:`RunTrace`, or a sequence of them, and then it returns an
    :class:`Ensemble` of their traces.  Either way the rows advance in
    lockstep as one ``(R, n)`` array: each k evaluates T and the residual
    once for all rows, and each stage draws every row from that row's own
    streams (see ``_lockstep``).  A row whose residual falls below the floor
    stops there and draws and bills nothing more; the others go on.

    Deterministic given (master_seed, replication): a row's trace is bit
    for bit the same whichever other rows share its run.  The plan comes
    from ``validate``, once for any number of replications.  T is evaluated
    once per point: T(x^k) serves the residual and the first stage, T(z^k)
    the second, and both the diagnostics.
    """
    one = isinstance(replication, Integral)
    # as Python ints, which a trace's JSON summary can hold (numpy's cannot)
    replications = [index(r) for r in ([replication] if one else replication)]
    if not replications:
        raise InvalidParameters("run needs at least one replication")
    problem, config = plan.problem, plan.config
    n, K, R = problem.dimension, config.max_iterations, len(replications)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatch(f"x0 must have shape ({n},)")
    T, fset, floor, alphas = (problem.mean_operator, problem.feasible_set,
                              config.residual_floor, plan.alphas)
    residual_sq, advance = natural_residual_sq, _lockstep(plan)
    record = config.diagnostics and T is not None  # only diagnostics read the steps
    X = np.broadcast_to(fset.project(x), (R, n))  # iterates live in X from the start
    iterates = np.zeros((R, K + 1, n))
    iterates[:, 0] = X
    r2 = None if T is None else np.zeros((R, K + 1))
    steps = np.zeros((R, K, 5, n)) if record else None
    ends = np.full(R, K)  # each row's step count
    live, live_replications = slice(None), replications  # the rows still advancing
    cum_calls, TX = [0], None
    for k in range(K + 1):
        if T is not None:  # the residual floor reads r^2 before each step
            TX = T(X)
            res = residual_sq(T, fset, X, alphas[k], t=TX)
            r2[live, k] = res
            stop = res <= floor
            if k < K and stop.any():
                rows = np.arange(R)[live]
                ends[rows[stop]] = k
                live, X, TX = rows[~stop], X[~stop], TX[~stop]
                live_replications = [replications[row] for row in live.tolist()]
                if not live_replications:
                    break
        if k == K:
            break
        Z, G1, G2, X, TZ, billed = advance(live_replications, k, X, TX)
        iterates[live, k + 1] = X
        if record:
            steps[live, k] = np.stack((Z, G1, G2, TX, TZ), axis=1)
        cum_calls.append(cum_calls[-1] + billed)

    has_dist = bool(problem.known_solutions) or problem.solution_set_is_feasible_set
    dist2 = distance_sq_to_solutions(problem, iterates) if has_dist else None
    traces = []
    for row, (replication, m) in enumerate(zip(replications, ends.tolist())):
        trace = RunTrace(
            iterates=iterates[row, :m + 1],
            r2=None if r2 is None else r2[row, :m + 1],
            dist2=None if dist2 is None else dist2[row, :m + 1],
            cum_calls=plan.cum_calls[:m + 1].copy(),
            sizes=plan.sizes[:m].copy(),
            alphas=np.array(alphas[:m]),
            replication=replication,
            lipschitz_L=problem.lipschitz_L,
            stopped_early=m < K,
        )
        if record:
            _record_diagnostics(trace, steps[row, :m], problem.known_solutions)
        traces.append(trace)
    if one:
        return traces[0]
    return Ensemble(traces=traces, cum_calls=np.array(cum_calls, dtype=np.int64))


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
    """Run independent single steps of the plan from ``x``, replications
    0..R-1 as one lockstep ensemble, and test E[dM] = 0.

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
    if x.shape != (problem.dimension,):
        raise DimensionMismatch(f"x must have shape ({problem.dimension},)")
    X, TX = (np.broadcast_to(v, (replications, problem.dimension))
             for v in (x, problem.mean_operator(x)))
    Z, _, G2, _, TZ, _ = _lockstep(plan)(range(replications), 0, X, TX)
    deltas = 2.0 * plan.alphas[0] * np.vecdot(x_star - Z, G2 - TZ)
    mean = float(np.mean(deltas))
    stderr = float(np.std(deltas, ddof=1) / math.sqrt(replications))
    return MartingaleProbeResult(mean=mean, stderr=stderr, replications=replications)
