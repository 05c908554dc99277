"""Problem and configuration model shared by all other modules.

The stochastic oracle contract:

* ``oracle(rng, x, size)`` returns an array of shape ``(size, n)`` whose
  rows are independent draws of the random operator at ``x`` -- one row per
  oracle call.
* ``oracle.block(rng, x, size, sl)`` (optional) returns only the component
  block ``sl`` of each draw.  The distributed iteration uses it: each agent
  owns an independent sample stream, so restricting generation to the block
  an agent consumes changes no observable quantity.  Without it the full
  draws are sliced.
* ``oracle.exact_mean = True`` (optional) declares that the oracle has both
  methods and that both accept ``mean=True``; they then return the average
  of ``size`` draws, shape ``(n,)`` (or the block's size), drawn from its
  exact law rather than by averaging draws.  The solver uses the flag
  whenever the oracle declares it, and otherwise draws the batch and
  averages it; either way a stage bills ``size`` calls.
* :meth:`ProblemInstance.draw` is the one route by which the package calls
  an oracle: it picks among these methods and checks every output's shape.
* The generator ``rng`` handed to an oracle is valid only for that call:
  the solver re-keys the same generator for the next stage, so an oracle
  must not keep it, or anything drawn lazily from it, past its return.

The mean-operator contract: ``mean_operator(X)`` maps points of shape
``(..., n)`` row by row to the same shape, as projections do, so merits
and audits take a whole trace in one call.  :func:`check_mean_operator`
enforces it; a single-point ``lambda x: A @ x`` fails with
``DimensionMismatch``.  The stacked ``(A @ X[..., None])[..., 0]`` gives
each row the single-point product bit for bit; ``X @ A.T`` does not.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlockMismatch,
    CoordinationMismatch,
    DimensionMismatch,
    InvalidStepsize,
    OracleFailure,
)
from .projection import CartesianProduct, FeasibleSet, block_slices, project, set_distance
from .sampling import SampleSchedule, schedule_tail_check

STEPSIZE_CAP = 1.0 / math.sqrt(6.0)  # times 1/L


@dataclass(frozen=True)
class RngStreamKey:
    """Address of one independent random stream.

    Distinct keys yield statistically independent streams (counter-based
    generator keyed by a hash of the tuple); the same key always reproduces
    the same draws, independently of evaluation order.  ``stage`` is 1 for
    the prediction-step samples and 2 for the correction-step samples.
    """

    master_seed: int
    replication: int = 0
    iteration: int = 0
    stage: int = 1
    block: int = 0
    sample: int = 0

    def __post_init__(self):
        if self.stage not in (1, 2):
            raise ValueError("stage must be 1 or 2")


def _philox_key(master_seed, replication, iteration, stage, block, sample=0):
    """128-bit Philox key of the stream with these six key fields: packed as
    little-endian int64, hashed with SHA-256, the first 16 bytes read as
    ``uint64[2]``."""
    payload = struct.pack("<qqqqqq", master_seed, replication, iteration, stage, block,
                          sample)
    return np.frombuffer(hashlib.sha256(payload).digest()[:16], dtype=np.uint64)


def derive_stream(key: RngStreamKey) -> np.random.Generator:
    """Deterministic, order-independent stream for the given key.

    The six key fields are packed and hashed into a 128-bit Philox key, so
    stream derivation is pure and collision probability is negligible.  A
    Philox stream is fixed by its key and counter alone, so the solver
    reproduces these streams without constructing one per stage: it re-keys
    a single generator and resets its counter, buffer and cached uint32.
    """
    return np.random.Generator(np.random.Philox(key=_philox_key(
        key.master_seed, key.replication, key.iteration, key.stage, key.block,
        key.sample)))


@dataclass(frozen=True)
class VarianceProfile:
    """Oracle-noise descriptor: 'uniform' sigma over X, or 'point' sigma(x*)."""

    kind: str
    sigma: float

    def __post_init__(self):
        if self.kind not in ("uniform", "point"):
            raise ValueError("variance profile kind must be 'uniform' or 'point'")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


def check_mean_operator(T, fset: FeasibleSet, n: int):
    """Raise ``DimensionMismatch`` unless ``T`` maps a ``(2, n)`` batch of
    feasible points to its two single-point values (rtol 1e-12)."""
    X = project(fset, np.stack([np.linspace(-0.5, 1.5, n), np.linspace(2.0, -0.5, n)]))
    rows = np.stack([np.asarray(T(x), dtype=float) for x in X])
    must = f"mean operator must map points of shape (..., n) row by row; on shape {X.shape}"
    try:
        out = np.asarray(T(X), dtype=float)
    except (ValueError, TypeError, IndexError) as exc:  # as shape misuse raises
        raise DimensionMismatch(f"{must} it raised {type(exc).__name__}: {exc}") from exc
    if out.shape != X.shape:
        raise DimensionMismatch(f"{must} it returned shape {out.shape}")
    if not np.allclose(out, rows, rtol=1e-12, atol=1e-12 * np.max(np.abs(rows), initial=1.0)):
        raise DimensionMismatch(f"{must} its rows differ from its single-point values")


def _freeze(arr):
    a = np.asarray(arr, dtype=float).copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, kw_only=True)
class ProblemInstance:
    """A stochastic variational inequality: find x* in X with
    <T(x*), x - x*> >= 0 for all x in X, where T(x) = E[F(xi, x)] is only
    accessible through the sampling oracle.

    ``mean_operator`` is the closed-form T used by merit functions and
    diagnostics; ``lipschitz_L`` is a known Lipschitz modulus of T (an input,
    never estimated silently).  ``blocks`` partitions the coordinates among
    agents; a single block recovers the monolithic problem.
    """

    dimension: int
    oracle: object
    lipschitz_L: float
    feasible_set: FeasibleSet
    blocks: tuple = ()
    mean_operator: object = None
    known_solutions: tuple = ()
    variance_profile: VarianceProfile | None = None
    solution_set_is_feasible_set: bool = False
    name: str = ""

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if not self.lipschitz_L > 0:
            raise ValueError("lipschitz_L must be positive")
        blocks = tuple(int(b) for b in (self.blocks or (self.dimension,)))
        if sum(blocks) != self.dimension:
            raise BlockMismatch(
                f"blocks {blocks} do not sum to dimension {self.dimension}")
        object.__setattr__(self, "blocks", blocks)
        self.feasible_set.check_dim(self.dimension)
        if len(blocks) > 1 and not (isinstance(self.feasible_set, CartesianProduct)
                                    and tuple(self.feasible_set.sizes) == blocks):
            raise BlockMismatch(f"blocks {blocks} need a Cartesian feasible set with the "
                                "same blocks (see ProblemInstance.with_blocks)")
        sols = tuple(_freeze(s) for s in self.known_solutions)
        object.__setattr__(self, "known_solutions", sols)
        for s in sols:
            if s.shape != (self.dimension,):
                raise BlockMismatch("known solution has wrong dimension")
            if set_distance(self.feasible_set, s) > 1e-10:
                raise ValueError("known solution lies outside the feasible set")
        if self.mean_operator is not None:
            from .merit import natural_residual_sq

            check_mean_operator(self.mean_operator, self.feasible_set, self.dimension)
            if sols:
                r2 = natural_residual_sq(self.mean_operator, self.feasible_set,
                                         np.stack(sols), 0.1 / self.lipschitz_L)
                if r2.max() > 1e-20:
                    raise ValueError(
                        f"known solution fails the fixed-point test: r^2 = {r2.max():.3e}")

    @property
    def n_blocks(self):
        return len(self.blocks)

    def block_slices(self):
        return block_slices(self.blocks)

    def with_blocks(self, blocks) -> "ProblemInstance":
        """Re-partition the coordinates; the feasible set is split blockwise.

        Only componentwise-separable sets (whole space, box, orthant, or an
        already matching Cartesian product) can be split.
        """
        from dataclasses import replace

        from .projection import split_separable

        blocks = tuple(int(b) for b in blocks)
        fset = split_separable(self.feasible_set, blocks) if len(blocks) > 1 \
            else self.feasible_set
        return replace(self, blocks=blocks, feasible_set=fset)

    def draw(self, rng, x, size, sl=None, mean=False):
        """``size`` oracle draws at ``x`` (block ``sl`` only, if given), or
        with ``mean`` their average; the one route to the oracle.  The
        average comes from the exact law when the oracle declares
        ``exact_mean``, a block from ``oracle.block`` when it has one (else
        the full draws are sliced), and the oracle's output is checked
        against the shape it must have."""
        o = self.oracle
        exact = mean and getattr(o, "exact_mean", False)
        if sl is not None and (exact or getattr(o, "block", None) is not None):
            out = o.block(rng, x, size, sl, mean=True) if exact else o.block(rng, x, size, sl)
            what, width, cut = "block ", len(range(self.dimension)[sl]), None
        else:  # the full draws, cut to block sl if given
            out = o(rng, x, size, mean=True) if exact else o(rng, x, size)
            what, width, cut = "", self.dimension, sl
        out = np.asarray(out, dtype=float)
        shape = (width,) if exact else (size, width)
        if out.shape != shape:
            raise OracleFailure(f"oracle {what}{'mean' if exact else 'batch'} has shape "
                                f"{out.shape}, expected {shape}")
        if cut is not None:
            out = out[:, cut]
        return out if exact or not mean else out.mean(axis=0)


@dataclass(frozen=True, kw_only=True)
class SolverConfig:
    """Extragradient run parameters.

    ``stepsize`` is a constant or a bounded sequence (array-like, extended by
    its last value); the whole sequence must satisfy
    0 < inf alpha_k <= sup alpha_k < 1/(sqrt(6) L).
    ``coordination`` selects the sampling mode for multi-block problems:
    'centralized' shares one draw set per stage across blocks, 'distributed'
    gives each block its own independent draws.
    """

    stepsize: object
    schedule: SampleSchedule
    max_iterations: int
    coordination: str = "centralized"
    master_seed: int = 0
    diagnostics: bool = False
    residual_floor: float = 1e-24

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.coordination not in ("centralized", "distributed"):
            raise ValueError("coordination must be 'centralized' or 'distributed'")
        if np.ndim(self.stepsize) == 0:
            object.__setattr__(self, "stepsize", float(self.stepsize))
        else:
            object.__setattr__(self, "stepsize", _freeze(self.stepsize))

    def stepsize_at(self, k: int) -> float:
        if isinstance(self.stepsize, float):
            return self.stepsize
        return float(self.stepsize[min(k, len(self.stepsize) - 1)])

    @property
    def stepsize_sup(self) -> float:
        if isinstance(self.stepsize, float):
            return self.stepsize
        return float(np.max(self.stepsize))

    @property
    def stepsize_inf(self) -> float:
        if isinstance(self.stepsize, float):
            return self.stepsize
        return float(np.min(self.stepsize))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def __str__(self):
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{status:4s}  {c.name}: {c.detail}")
        return "\n".join(lines)


def validate(problem: ProblemInstance, config: SolverConfig) -> ValidationReport:
    """Check every configuration-time condition the method relies on.

    Returns a report with one entry per check.  Raises immediately (rather
    than reporting) on the conditions that make a run meaningless: a stepsize
    at or above 1/(sqrt(6) L), sample counts still stalled near 1 at the
    ``schedule_tail_check`` horizon (the schedule's parameter region already
    makes sum_k 1/N_k finite; the check is analytic, not a scan), and agent
    schedules that do not fit the blocks or the coordination.  Re-running is
    idempotent and side-effect free.
    """
    checks = []
    L = problem.lipschitz_L
    cap = STEPSIZE_CAP / L
    if not config.stepsize_inf > 0:
        raise InvalidStepsize("stepsize sequence must be bounded away from zero")
    if not config.stepsize_sup < cap:
        raise InvalidStepsize(
            f"sup stepsize {config.stepsize_sup:.6g} must be < 1/(sqrt(6) L) = {cap:.6g}")
    checks.append(CheckResult(
        "stepsize_bounds", True,
        f"0 < {config.stepsize_inf:.6g} <= {config.stepsize_sup:.6g} < {cap:.6g}"))

    m = problem.n_blocks
    sched = config.schedule.broadcast(m)  # raises InvalidSchedule on shape mismatch
    checks.append(CheckResult(
        "schedule_parameters", True,
        "; ".join(f"theta={a.theta:g}, mu={a.mu:g}, a={a.a:g}, b={a.b:g}"
                  for a in sched.agents)))

    ok, detail = schedule_tail_check(sched)
    if not ok:
        from .errors import InvalidSchedule

        raise InvalidSchedule(f"sampling-rate tail not summable at finite horizon: {detail}")
    checks.append(CheckResult("sampling_rate_summable", True, detail))

    if config.coordination == "centralized" and m > 1:
        first = sched.agents[0]
        if any(a != first for a in sched.agents[1:]):
            raise CoordinationMismatch(
                "centralized sampling requires identical per-block sample counts")
    checks.append(CheckResult("sampling_coordination", True, config.coordination))
    checks.append(CheckResult(
        "block_partition", True, f"blocks {problem.blocks} sum to n = {problem.dimension}"))

    # Construction-time invariants, re-reported for completeness.
    checks.append(CheckResult(
        "known_solutions_feasible", True,
        f"{len(problem.known_solutions)} solution(s) within 1e-10 of the set"))
    if problem.mean_operator is not None:
        checks.append(CheckResult(
            "known_solutions_fixed_points", True,
            "natural residual <= 1e-10 at alpha = 0.1/L"))
    else:
        checks.append(CheckResult(
            "mean_operator_available", False,
            "no closed-form mean operator: merits will be estimated"))
    if problem.variance_profile is None:
        checks.append(CheckResult(
            "variance_profile", False, "no variance descriptor supplied (informational)"))
    else:
        vp = problem.variance_profile
        checks.append(CheckResult("variance_profile", True, f"{vp.kind}, sigma={vp.sigma:g}"))
    return ValidationReport(tuple(checks))
