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
from .errors import InvalidParameters, MissingDiagnostics, OracleFailure
from .merit import distance_sq_to_solutions, natural_residual_sq
from .projection import inner, project


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
    """Shared per-run machinery: draw sets, streams, recording.

    Sample counts are tabulated for iterations 0..``horizon``; the engine
    advances no iteration past it.  A stage draws one set (stream block 0)
    when centralized, one per agent, (i, slice_i), when distributed.  The
    engine re-keys one Philox generator for every (iteration, stage, block)
    stream, which gives the draws of ``derive_stream(self.key(...))``.  It
    checks nothing: its callers run ``validate``.
    """

    def __init__(self, problem: ProblemInstance, config: SolverConfig, replication: int,
                 horizon: int):
        self.problem = problem
        self.config = config
        self.replication = replication
        self.sizes = config.schedule.broadcast(problem.n_blocks).sizes_upto(horizon)
        distributed = config.coordination == "distributed" and problem.n_blocks > 1
        self.draw_sets = list(enumerate(problem.block_slices())) if distributed \
            else [(0, None)]
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

        Each draw set bills its N_{k,i} calls whether its average is drawn
        from the exact law or from the draws themselves (see
        ``ProblemInstance.draw``).  A non-finite average raises.
        """
        means, calls = [], 0
        for i, sl in self.draw_sets:
            n = int(self.sizes[k, i])
            means.append(self.problem.draw(self.stream(k, stage, i), point, n, sl, mean=True))
            calls += n
        mean = means[0] if len(means) == 1 else np.concatenate(means)
        if not np.isfinite(mean).all():
            raise OracleFailure(
                f"oracle average is not finite at iteration {k}, stage {stage}")
        return mean, calls

    def advance(self, state: ExtragradientState):
        """One iteration from ``state``, updated in place; returns the
        prediction point z^k and the two stage averages (g1, g2)."""
        k = state.k
        alpha = self.config.stepsize_at(k)
        g1, calls1 = self.stage_mean(k, 1, state.x)
        z = project(self.problem.feasible_set, state.x - alpha * g1)
        g2, calls2 = self.stage_mean(k, 2, z)
        state.x = project(self.problem.feasible_set, state.x - alpha * g2)
        state.calls += calls1 + calls2
        state.k = k + 1
        return z, g1, g2


def step(state: ExtragradientState, problem: ProblemInstance,
         config: SolverConfig) -> ExtragradientState:
    """One extragradient iteration from ``state`` under the config's
    coordination; it advances exactly as ``run`` does at iteration state.k."""
    validate(problem, config)
    _Engine(problem, config, state.replication, state.k).advance(state)
    return state


def _pow2(v):
    """Squares as scalar ``** 2`` (libm ``pow``) gives them; an array's
    ``** 2`` multiplies, which differs in the last bit about once in 1000."""
    return np.float_power(v, 2)


def run(problem: ProblemInstance, config: SolverConfig, replication: int = 0,
        x0=None, check: bool = True) -> RunTrace:
    """Execute the iteration for ``max_iterations`` steps (early stop once the
    squared natural residual falls below ``config.residual_floor``).

    Deterministic given (master_seed, replication): traces are bit-identical
    across reruns and across serial or concurrent execution.  ``check=False``
    skips ``validate``: the caller has already run it on this pair.
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
    state = ExtragradientState(k=0, x=x, calls=0, replication=replication)
    iterates, r2, cum_calls, steps = [x], [], [0], []
    stopped = False
    for k in range(K + 1):
        if T is not None:  # the residual floor reads r^2 before each step
            r2.append(natural_residual_sq(T, problem.feasible_set, state.x,
                                          config.stepsize_at(k)))
            stopped = bool(k < K and r2[-1] <= config.residual_floor)
        if k == K or stopped:
            break
        steps.append(eng.advance(state))
        iterates.append(state.x)
        cum_calls.append(state.calls)

    iterates = np.array(iterates)
    n_steps = len(steps)
    has_dist = bool(problem.known_solutions) or problem.solution_set_is_feasible_set
    trace = RunTrace(
        iterates=iterates,
        r2=np.array(r2) if T is not None else None,
        dist2=distance_sq_to_solutions(problem, iterates) if has_dist else None,
        cum_calls=np.array(cum_calls, dtype=np.int64),
        sizes=eng.sizes[:n_steps].copy(),
        alphas=np.array([config.stepsize_at(k) for k in range(n_steps)]),
        replication=replication,
        lipschitz_L=problem.lipschitz_L,
        stopped_early=stopped,
    )
    if config.diagnostics and T is not None:
        _record_diagnostics(trace, T, np.array(steps).reshape(n_steps, 3, n),
                            problem.known_solutions)
    return trace


def _record_diagnostics(trace: RunTrace, T, steps, track):
    """Realized errors and the A and M sums (module docstring) from each
    step's (z, g1, g2).  ``np.cumsum`` adds in order, and A_(k+1) adds its
    two terms one after the other, so A is a running sum of both, interleaved."""
    z, g1, g2 = steps.swapaxes(0, 1)
    e1 = g1 - np.asarray(T(trace.iterates[:-1]), dtype=float)
    e2 = g2 - np.asarray(T(z), dtype=float)
    alpha = trace.alphas
    rho = 1.0 - 6.0 * _pow2(trace.lipschitz_L * alpha)
    trace.z, trace.eps2 = z, e2
    trace.eps1_norm, trace.eps2_norm = np.sqrt(inner(e1, e1)), np.sqrt(inner(e2, e2))
    dA = np.zeros(2 * len(alpha) + 1)
    dA[1::2] = (8.0 + rho) * _pow2(alpha) * _pow2(trace.eps1_norm)
    dA[2::2] = 8.0 * _pow2(alpha) * _pow2(trace.eps2_norm)
    trace.A = np.cumsum(dA)[::2]
    dM = np.zeros((len(alpha) + 1, len(track)))
    for s, xstar in enumerate(track):
        dM[1:, s] = 2.0 * alpha * inner(xstar - z, e2)
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
        dM = 2.0 * alpha * inner(x_star - trace.z, trace.eps2)
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
    validate(problem, config)
    eng = _Engine(problem, config, 0, 0)
    steps = []
    for r in range(replications):
        eng.replication = r
        steps.append(eng.advance(ExtragradientState(k=0, x=x, replication=r)))
    z, _, g2 = np.array(steps).swapaxes(0, 1)
    e2 = g2 - np.asarray(problem.mean_operator(z), dtype=float)
    deltas = 2.0 * config.stepsize_at(0) * inner(x_star - z, e2)
    mean = float(np.mean(deltas))
    stderr = float(np.std(deltas, ddof=1) / math.sqrt(replications))
    return MartingaleProbeResult(mean=mean, stderr=stderr, replications=replications)
