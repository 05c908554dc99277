"""Variance-reduced stochastic extragradient iteration.

One iteration from x^k draws N_k samples per stage and projects twice:

    z^k     = P[ x^k - (alpha_k / N_k) sum_j F(xi_j^k,  x^k) ]
    x^(k+1) = P[ x^k - (alpha_k / N_k) sum_j F(eta_j^k, z^k) ]

with fresh, independent sample sets per stage.  On a problem of several
blocks the feasible set is a product along them, so the projection splits
blockwise; under centralized sampling all blocks share one
draw set per stage (and the trace coincides bit for bit with the monolithic
iteration), under distributed sampling each block consumes its own stream of
N_{k,i} draws and is billed separately.

The replications of a run advance in lockstep, as the rows of one (R, n)
array: each iteration evaluates T, the residual and each projection once
for all rows, and each row draws from the streams keyed by its own
replication index, so a row's trace is bit for bit the trace of that
replication run alone, provided T maps rows independently (see :func:`run`).

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
from .core import RunPlan, _check_key, derive_stream, streams, validate  # noqa: F401
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
    ``A``, ``M`` (one column per known solution of the problem), ``cum_calls``.
    Arrays indexed by step (length K): ``z``, ``eps1_norm``, ``eps2_norm``,
    ``eps2`` vectors, ``alphas``; step k drew the plan's ``rows[k]``.
    Diagnostics-only arrays are None when the run was recorded without them.
    From :func:`run`, a trace is built once, complete: every array is a view
    of a row of the run's arrays or of the plan's tables.
    """

    iterates: np.ndarray
    r2: np.ndarray | None
    dist2: np.ndarray | None
    cum_calls: np.ndarray
    alphas: np.ndarray
    replication: int
    z: np.ndarray | None = None
    eps1_norm: np.ndarray | None = None
    eps2_norm: np.ndarray | None = None
    eps2: np.ndarray | None = None
    A: np.ndarray | None = None
    M: np.ndarray | None = None
    lipschitz_L: float = 1.0
    stopped_early: bool = False

    @property
    def n_steps(self):
        return self.iterates.shape[0] - 1

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
            "final_iterate": self.iterates[-1].tolist(),
        }
        if self.r2 is not None:
            out["final_r2"] = float(self.r2[-1])
        if self.dist2 is not None:
            out["final_dist2"] = float(self.dist2[-1])
        return out


class Ensemble(NamedTuple):
    """One lockstep run, a row per replication in the order given: the
    (R, K+1, n) ``iterates`` and (R, K+1) ``r2`` and ``dist2`` (as in a
    trace), a stopped row held at its final value to K, and ``traces``, the
    rows cut to their own steps.  ``cum_calls[k]`` is the calls the ensemble
    billed before iteration k, counted where the engine hands each stage's
    sizes to the route (not read from the traces or the plan); a stopped row
    bills nothing more.  ``n_steps`` is the steps of every row, summed."""

    traces: list
    cum_calls: np.ndarray
    iterates: np.ndarray
    r2: np.ndarray | None
    dist2: np.ndarray | None

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
    stops there and draws and bills nothing more; the others go on, and the
    ensemble's arrays hold the stopped row at its final iterate and r^2.

    Deterministic given (master_seed, replication).  A row's trace is bit
    for bit the same whichever other rows share its run when T maps each
    row independently of the others, as ``np.matvec`` and the built-in
    operators do; ``check_mean_operator`` compares rows only to rtol 1e-12,
    so it accepts a T such as ``X @ A.T`` whose rows may change in their
    last bits with the rows beside them.  The plan comes from ``validate``,
    once for any number of replications.  T is evaluated once per point:
    T(x^k) serves the residual and the first stage, T(z^k) the second, and
    both the diagnostics, which keep every row's z^k and realized errors in
    (R, K, n) arrays and sum A and M for all rows after the loop.  A
    replication index outside the signed 64-bit range, or an ``x0`` whose
    projection is not finite, raises ``InvalidParameters`` before any draw.
    """
    one = isinstance(replication, Integral)
    # as Python ints, which a trace's JSON summary can hold (numpy's cannot)
    replications = [index(r) for r in ([replication] if one else replication)]
    if not replications:
        raise InvalidParameters("run needs at least one replication")
    _check_key(min(replications), "replication")  # once here, not at each re-key
    _check_key(max(replications), "replication")
    problem, config = plan.problem, plan.config
    n, K, R = problem.dimension, config.max_iterations, len(replications)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n,):
        raise DimensionMismatch(f"x0 must have shape ({n},)")
    T, fset, floor, alphas = (problem.mean_operator, problem.feasible_set,
                              config.residual_floor, plan.alphas)
    residual_sq, advance = natural_residual_sq, _lockstep(plan)
    record = config.diagnostics and T is not None  # only diagnostics read the steps
    start = fset.project(x)
    if not np.isfinite(start).all():
        raise InvalidParameters(f"x0 {x.tolist()} projects to the non-finite point "
                                f"{start.tolist()}")
    X = np.broadcast_to(start, (R, n))  # iterates live in X from the start
    iterates = np.zeros((R, K + 1, n))
    iterates[:, 0] = X
    r2 = None if T is None else np.zeros((R, K + 1))
    # z^k and the realized errors eps1 = G1 - T(x^k) and eps2 = G2 - T(z^k)
    Zs, E1, E2 = (np.zeros((R, K, n)) for _ in range(3)) if record else (None,) * 3
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
                done = rows[stop]
                ends[done] = k
                iterates[done, k + 1:] = iterates[done, k, None]
                r2[done, k + 1:] = res[stop, None]
                live, X, TX = rows[~stop], X[~stop], TX[~stop]
                live_replications = [replications[row] for row in live.tolist()]
                if not live_replications:
                    break
        if k == K:
            break
        Z, G1, G2, X, TZ, billed = advance(live_replications, k, X, TX)
        iterates[live, k + 1] = X
        if record:
            Zs[live, k], E1[live, k], E2[live, k] = Z, G1 - TX, G2 - TZ
        cum_calls.append(cum_calls[-1] + billed)

    has_dist = bool(problem.known_solutions) or problem.solution_set_is_feasible_set
    dist2 = distance_sq_to_solutions(problem, iterates) if has_dist else None
    by_step, sums = _diagnostics(alphas[:K], problem, Zs, E1, E2) if record else ({}, {})
    by_iterate = {"iterates": iterates, "r2": r2, "dist2": dist2, **sums}
    traces = [RunTrace(**{f: None if a is None else a[row, :m + 1] for f, a in by_iterate.items()},
                       **{f: a[row, :m] for f, a in by_step.items()},
                       cum_calls=plan.cum_calls[:m + 1], alphas=alphas[:m],
                       replication=replication, lipschitz_L=problem.lipschitz_L,
                       stopped_early=m < K)
              for row, (replication, m) in enumerate(zip(replications, ends.tolist()))]
    return traces[0] if one else Ensemble(
        traces, np.array(cum_calls, dtype=np.int64), iterates, r2, dist2)


def _martingale_increment(alpha, x_star, z, eps2):
    """The increment 2 alpha_k <x* - z^k, eps2^k> of M(x*), over the last axis."""
    return 2.0 * alpha * np.vecdot(x_star - z, eps2)


def _diagnostics(alphas, problem, Z, E1, E2):
    """By step and by iterate, ``({"z", "eps1_norm", "eps2_norm", "eps2"},
    {"A", "M"})`` of every row from its (R, K, n) z^k, eps1 and eps2, an M
    column per known solution.  ``np.cumsum`` adds along the steps in order:
    A is the running sum of its two terms interleaved (module docstring),
    and a stopped row's zero steps lie past its end."""
    R, K = Z.shape[:2]
    norm1, norm2 = np.sqrt(np.vecdot(E1, E1)), np.sqrt(np.vecdot(E2, E2))
    rho = 1.0 - 6.0 * _pow2(problem.lipschitz_L * alphas)
    dA = np.zeros((R, 2 * K + 1))
    dA[:, 1::2] = (8.0 + rho) * _pow2(alphas) * _pow2(norm1)
    dA[:, 2::2] = 8.0 * _pow2(alphas) * _pow2(norm2)
    dM = np.zeros((R, K + 1, len(problem.known_solutions)))
    for s, x_star in enumerate(problem.known_solutions):
        dM[:, 1:, s] = _martingale_increment(alphas, x_star, Z, E2)
    return ({"z": Z, "eps1_norm": norm1, "eps2_norm": norm2, "eps2": E2},
            {"A": np.cumsum(dA, axis=1)[:, ::2], "M": np.cumsum(dM, axis=1)})


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

    ``x_star`` may be any solution, and every x* takes its martingale
    increments from the stored z and eps2 vectors.
    """
    if trace.z is None or trace.eps2 is None or trace.A is None:
        raise MissingDiagnostics("fejer_audit needs a trace recorded with diagnostics")
    x_star = np.asarray(x_star, dtype=float)
    alpha = trace.alphas
    dM = _martingale_increment(alpha, x_star, trace.z, trace.eps2)
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
    if not np.isfinite(x).all():
        raise InvalidParameters(f"x must be finite, got {x.tolist()}")
    X, TX = (np.broadcast_to(v, (replications, problem.dimension))
             for v in (x, problem.mean_operator(x)))
    Z, _, G2, _, TZ, _ = _lockstep(plan)(range(replications), 0, X, TX)
    deltas = _martingale_increment(plan.alphas[0], x_star, Z, G2 - TZ)
    mean = float(np.mean(deltas))
    stderr = float(np.std(deltas, ddof=1) / math.sqrt(replications))
    return MartingaleProbeResult(mean=mean, stderr=stderr, replications=replications)
