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

# derive_stream is not called here, but it stays a module global of the solver:
# perfbench/tracing.py rebinds it at this name.
from .core import (
    ProblemInstance,
    RngStreamKey,
    SolverConfig,
    _philox_key,
    derive_stream,
    validate,
)
from .errors import CoordinationMismatch, InvalidParameters, MissingDiagnostics, OracleFailure
from .merit import distance_sq_to_solutions, natural_residual_sq
from .projection import CartesianProduct, project


@dataclass
class ExtragradientState:
    """Mutable cursor of a run: iteration, iterate, oracle-call total."""

    k: int
    x: np.ndarray
    calls: int = 0
    replication: int = 0


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


class _Engine:
    """Shared per-run machinery: block layout, streams, recording.

    Sample counts are tabulated for iterations 0..``horizon``; the engine
    advances no iteration past it.  The engine owns one Philox generator and
    re-keys it for every (iteration, stage, block) stream, which gives the
    draws of ``derive_stream(self.key(...))`` without constructing a
    generator per stage.
    """

    def __init__(self, problem: ProblemInstance, config: SolverConfig, replication: int,
                 horizon: int):
        self.problem = problem
        self.config = config
        self.replication = replication
        self.m = problem.n_blocks
        self.slices = problem.block_slices()
        self.schedule = config.schedule.broadcast(self.m)
        self.sizes = self.schedule.sizes_upto(horizon)
        self.centralized = config.coordination == "centralized" or self.m == 1
        if self.centralized and self.m > 1:
            if np.any(self.sizes.max(axis=1) != self.sizes.min(axis=1)):
                raise CoordinationMismatch(
                    "centralized sampling requires equal per-block counts")
        fset = problem.feasible_set
        if self.m > 1 and not isinstance(fset, CartesianProduct):
            raise CoordinationMismatch(
                "multi-block problems need a Cartesian feasible set "
                "(see ProblemInstance.with_blocks)")
        if self.m > 1 and tuple(fset.sizes) != tuple(problem.blocks):
            raise CoordinationMismatch("feasible-set blocks disagree with problem blocks")
        self._bits = np.random.Philox(key=0)
        self._rng = np.random.Generator(self._bits)
        # a fresh state: counter zero, empty buffer, no cached uint32
        self._fresh = self._bits.state

    def key(self, k, stage, block):
        return RngStreamKey(self.config.master_seed, self.replication, k, stage, block)

    def stream(self, k, stage, block):
        """The engine's generator, re-keyed to the stream of ``self.key(k,
        stage, block)``; it is valid until the next call."""
        self._fresh["state"]["key"] = _philox_key(
            self.config.master_seed, self.replication, k, stage, block)
        self._bits.state = self._fresh
        return self._rng

    def stage_mean(self, k, stage, point):
        """Oracle average at ``point`` and the oracle calls it bills.

        A stage bills its N_k (per agent: N_{k,i}) calls whether the average
        is drawn from its exact law or from the draws themselves (see
        ``ProblemInstance.oracle_mean``).  A non-finite average raises.
        """
        if self.centralized:
            calls = int(self.sizes[k, 0])
            rng = self.stream(k, stage, 0)
            mean = self.problem.oracle_mean(rng, point, calls)
        else:
            mean = np.empty(self.problem.dimension)
            calls = 0
            for i, sl in enumerate(self.slices):
                n_draws = int(self.sizes[k, i])
                rng = self.stream(k, stage, i)
                mean[sl] = self.problem.oracle_mean(rng, point, n_draws, sl)
                calls += n_draws
        if not np.isfinite(mean).all():
            raise OracleFailure(
                f"oracle average is not finite at iteration {k}, stage {stage}")
        return mean, calls

    def advance(self, state: ExtragradientState, record=None):
        k = state.k
        alpha = self.config.stepsize_at(k)
        g1, calls1 = self.stage_mean(k, 1, state.x)
        z = project(self.problem.feasible_set, state.x - alpha * g1)
        g2, calls2 = self.stage_mean(k, 2, z)
        x_next = project(self.problem.feasible_set, state.x - alpha * g2)
        if record is not None:
            record(k, state.x, z, g1, g2, alpha)
        state.x = x_next
        state.calls += calls1 + calls2
        state.k = k + 1
        return state


def step(state: ExtragradientState, problem: ProblemInstance,
         config: SolverConfig) -> ExtragradientState:
    """One extragradient iteration from ``state`` under the config's
    coordination; it advances exactly as ``run`` does at iteration state.k."""
    return _Engine(problem, config, state.replication, state.k).advance(state)


def run(problem: ProblemInstance, config: SolverConfig, replication: int = 0,
        x0=None, check: bool = True) -> RunTrace:
    """Execute the iteration for ``max_iterations`` steps (early stop once the
    squared natural residual falls below ``config.residual_floor``).

    Deterministic given (master_seed, replication): traces are bit-identical
    across reruns and across serial or concurrent execution.
    """
    if check:
        validate(problem, config)
    eng = _Engine(problem, config, replication, config.max_iterations)
    n = problem.dimension
    K = config.max_iterations
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n,):
        from .errors import DimensionMismatch

        raise DimensionMismatch(f"x0 must have shape ({n},)")
    x = project(problem.feasible_set, x)  # iterates live in X from the start

    T = problem.mean_operator
    has_T = T is not None
    diag = config.diagnostics and has_T
    track = problem.known_solutions if diag else ()
    has_dist = bool(problem.known_solutions) or problem.solution_set_is_feasible_set

    iterates = np.empty((K + 1, n))
    r2 = np.empty(K + 1) if has_T else None
    dist2 = np.empty(K + 1) if has_dist else None
    cum_calls = np.zeros(K + 1, dtype=np.int64)
    alphas = np.empty(K)
    zs = np.empty((K, n)) if diag else None
    eps1_norm = np.empty(K) if diag else None
    eps2_norm = np.empty(K) if diag else None
    eps2_vec = np.empty((K, n)) if diag else None
    A = np.zeros(K + 1) if diag else None
    M = np.zeros((K + 1, len(track))) if diag else None

    L = problem.lipschitz_L
    state = ExtragradientState(k=0, x=x, calls=0, replication=replication)
    steps_done = 0
    stopped = False

    def record(k, xk, zk, g1, g2, alpha):
        if not diag:
            return
        e1 = g1 - np.asarray(T(xk), dtype=float)
        e2 = g2 - np.asarray(T(zk), dtype=float)
        zs[k] = zk
        eps1_norm[k] = np.linalg.norm(e1)
        eps2_norm[k] = np.linalg.norm(e2)
        eps2_vec[k] = e2
        rho_k = 1.0 - 6.0 * (L * alpha) ** 2
        A[k + 1] = A[k] + (8.0 + rho_k) * alpha ** 2 * eps1_norm[k] ** 2 \
            + 8.0 * alpha ** 2 * eps2_norm[k] ** 2
        for s, xstar in enumerate(track):
            M[k + 1, s] = M[k, s] + 2.0 * alpha * float((xstar - zk) @ e2)

    for k in range(K):
        iterates[k] = state.x
        if has_T:
            r2[k] = natural_residual_sq(T, problem.feasible_set, state.x,
                                        config.stepsize_at(k))
        if has_dist:
            dist2[k] = distance_sq_to_solutions(problem, state.x)
        if has_T and r2[k] <= config.residual_floor:
            stopped = True
            break
        alphas[k] = config.stepsize_at(k)
        eng.advance(state, record)
        cum_calls[k + 1] = state.calls
        steps_done = k + 1

    iterates[steps_done] = state.x
    if has_T:
        r2[steps_done] = natural_residual_sq(
            T, problem.feasible_set, state.x, config.stepsize_at(steps_done))
    if has_dist:
        dist2[steps_done] = distance_sq_to_solutions(problem, state.x)

    sl = slice(0, steps_done + 1)
    sl_step = slice(0, steps_done)
    return RunTrace(
        iterates=iterates[sl].copy(),
        r2=r2[sl].copy() if has_T else None,
        dist2=dist2[sl].copy() if has_dist else None,
        cum_calls=cum_calls[sl].copy(),
        sizes=eng.sizes[sl_step].copy(),
        alphas=alphas[sl_step].copy(),
        replication=replication,
        z=zs[sl_step].copy() if diag else None,
        eps1_norm=eps1_norm[sl_step].copy() if diag else None,
        eps2_norm=eps2_norm[sl_step].copy() if diag else None,
        eps2=eps2_vec[sl_step].copy() if diag else None,
        A=A[sl].copy() if diag else None,
        M=M[sl].copy() if diag else None,
        tracked_solutions=tuple(track),
        lipschitz_L=L,
        stopped_early=stopped,
    )


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


def fejer_audit(trace: RunTrace, x_star, problem: ProblemInstance,
                config: SolverConfig, rel_tol: float = 1e-9) -> FejerAuditReport:
    """Audit the per-step quasi-Fejer inequality along a recorded trace.

    ``x_star`` may be any solution: tracked solutions reuse the recorded M
    column, other points recompute the martingale increment from the stored
    z and eps2 vectors.
    """
    if trace.z is None or trace.eps2 is None or trace.A is None:
        raise MissingDiagnostics("fejer_audit needs a trace recorded with diagnostics")
    x_star = np.asarray(x_star, dtype=float)
    K = trace.n_steps
    col = None
    for s, sol in enumerate(trace.tracked_solutions):
        if np.array_equal(sol, x_star):
            col = s
            break
    max_viol = 0.0
    max_rel = 0.0
    n_bad = 0
    d2 = np.sum((trace.iterates - x_star) ** 2, axis=1)
    for k in range(K):
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
            max_rel = rel
            max_viol = viol
        if rel > rel_tol:
            n_bad += 1
    return FejerAuditReport(
        max_violation=max_viol, max_rel_violation=max_rel,
        n_violations=n_bad, n_steps=K, tolerance=rel_tol)


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


def martingale_probe(problem: ProblemInstance, config: SolverConfig, x,
                     replications: int, x_star=None) -> MartingaleProbeResult:
    """Run independent single steps from ``x`` and test E[dM] = 0.

    dM = 2 <x* - z, alpha eps2> where eps2 is the correction-stage error;
    its conditional mean vanishes because the second-stage samples are
    independent of everything realized before them.  Its standard error
    needs at least two replications.
    """
    if replications < 2:
        raise InvalidParameters("martingale probe needs at least 2 replications")
    if problem.mean_operator is None:
        from .errors import NoMeanOperator

        raise NoMeanOperator("martingale probe needs the closed-form mean operator")
    if x_star is None:
        if not problem.known_solutions:
            from .errors import NoKnownSolutions

            raise NoKnownSolutions("martingale probe needs a reference solution")
        x_star = problem.known_solutions[0]
    x_star = np.asarray(x_star, dtype=float)
    x = np.asarray(x, dtype=float)
    T = problem.mean_operator
    alpha = config.stepsize_at(0)
    deltas = np.empty(replications)
    eng = _Engine(problem, config, 0, 0)
    for r in range(replications):
        eng.replication = r
        g1, _ = eng.stage_mean(0, 1, x)
        z = project(problem.feasible_set, x - alpha * g1)
        g2, _ = eng.stage_mean(0, 2, z)
        e2 = g2 - np.asarray(T(z), dtype=float)
        deltas[r] = 2.0 * alpha * float((x_star - z) @ e2)
    mean = float(np.mean(deltas))
    stderr = float(np.std(deltas, ddof=1) / math.sqrt(replications))
    return MartingaleProbeResult(mean=mean, stderr=stderr, replications=replications)
