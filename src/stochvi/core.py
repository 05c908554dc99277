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
* An exact-mean oracle whose law is centred on T may also take ``t=None``
  with ``mean=True``: ``t`` is T(x) as the caller already evaluated it, to be
  read instead of evaluating T again.  The solver passes it only when the
  oracle declares ``exact_mean`` and its ``mean_operator`` attribute is the
  problem's ``mean_operator`` object itself
  (:attr:`ProblemInstance.oracle_shares_mean_operator`); every other oracle
  is called without it.  It then evaluates T once per point, for all of a
  stage's draw sets and the residual floor.  ``AdditiveGaussianOracle`` and
  ``LinearMatrixNoiseOracle`` are built on their problem's ``mean_operator``
  and read ``t`` when handed it, never a product of their own.
* :meth:`ProblemInstance.route` is the one route by which the package calls
  an oracle: it picks among these methods once and returns a callable that
  checks every output's shape.  The solver resolves each draw set's route
  once per run, when the run starts, so the oracle's methods are read then;
  ``batch_mean`` one per call, ``error_decay_probe`` and the harness's surrogate one each.
* The generator ``rng`` handed to an oracle is valid only for that call:
  the solver re-keys the same generator for the next stage, so an oracle
  must not keep it, or anything drawn lazily from it, past its return.

Run-time randomness has one source, :func:`streams`: the solver, the probes,
the baselines and the harness's surrogate each take a stream function of
their own.  :func:`derive_stream` is the reference they equal bit for bit.

The mean-operator contract: ``mean_operator(X)`` maps points of shape
``(..., n)`` row by row to the same shape, as projections do, so merits
and audits take a whole trace in one call.  :func:`check_mean_operator`
enforces it; a single-point ``lambda x: A @ x`` fails with
``DimensionMismatch``.  ``np.matvec(A, X)`` gives each row the single-point
``A @ x`` bit for bit (``np.vecdot`` likewise); ``X @ A.T`` does not.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (
    BlockMismatch,
    CoordinationMismatch,
    DimensionMismatch,
    InvalidParameters,
    InvalidSchedule,
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
            raise InvalidParameters("stage must be 1 or 2")


_KEY_FIELDS, _KEY_WORDS = struct.Struct("<qqqqqq"), struct.Struct("<QQ")


def _philox_key(master_seed, replication, iteration, stage, block, sample=0):
    """128-bit Philox key of the stream with these six key fields: packed as
    little-endian int64, hashed with SHA-256, the first 16 bytes read as two
    little-endian uint64, returned as Python ints (the Philox state setter
    reads ints faster than array elements)."""
    return _KEY_WORDS.unpack_from(hashlib.sha256(_KEY_FIELDS.pack(
        master_seed, replication, iteration, stage, block, sample)).digest())


def derive_stream(key: RngStreamKey) -> np.random.Generator:
    """Deterministic, order-independent stream for the given key.

    The six key fields are packed and hashed into a 128-bit Philox key, so
    stream derivation is pure and collision probability is negligible.  It
    is the reference: the package takes its run-time streams from
    :func:`streams`, which gives the same stream without a new generator.
    """
    return np.random.Generator(np.random.Philox(key=np.array(_philox_key(
        key.master_seed, key.replication, key.iteration, key.stage, key.block,
        key.sample), dtype=np.uint64)))


@functools.cache
def _throwaway_seed():
    """A fixed seed, so building a stream function draws no OS entropy (every
    re-key replaces the key it gives); made on first use, since importing
    the package loads no ``numpy.random``."""
    return np.random.SeedSequence(0)


def streams(master_seed):
    """``stream(replication, iteration, stage, block, sample=0)``, the one
    maker of run-time streams: it re-keys one Philox generator, owned by this
    call of ``streams``, to the stream ``derive_stream`` gives for the key (a
    Philox stream is fixed by its key and counter alone) and is valid until
    the next call.  Consumers that may run inside one another each call
    ``streams`` for their own."""
    bits = np.random.Philox(_throwaway_seed())
    rng = np.random.Generator(bits)
    fresh = bits.state  # counter zero, empty buffer, no cached uint32
    # as Python ints: the state setter reads them faster than array elements
    keyed = fresh["state"] = {name: v.tolist() for name, v in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()

    def stream(replication, iteration, stage, block, sample=0):
        keyed["key"] = _philox_key(master_seed, replication, iteration, stage, block, sample)
        bits.state = fresh
        return rng

    return stream


@dataclass(frozen=True)
class VarianceProfile:
    """Oracle-noise descriptor: 'uniform' sigma over X, or 'point' sigma(x*)."""

    kind: str
    sigma: float

    def __post_init__(self):
        if self.kind not in ("uniform", "point"):
            raise InvalidParameters("variance profile kind must be 'uniform' or 'point'")
        if self.sigma < 0:
            raise InvalidParameters("sigma must be nonnegative")


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
            raise InvalidParameters("dimension must be positive")
        if not self.lipschitz_L > 0:
            raise InvalidParameters("lipschitz_L must be positive")
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
                raise InvalidParameters("known solution lies outside the feasible set")
        if self.mean_operator is not None:
            from .merit import natural_residual_sq

            check_mean_operator(self.mean_operator, self.feasible_set, self.dimension)
            if sols:
                r2 = natural_residual_sq(self.mean_operator, self.feasible_set,
                                         np.stack(sols), 0.1 / self.lipschitz_L)
                if r2.max() > 1e-20:
                    raise InvalidParameters(
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

    @property
    def oracle_shares_mean_operator(self):
        """Whether the exact-mean route hands the oracle T(x): the oracle
        declares ``exact_mean`` and its ``mean_operator`` is this problem's."""
        T = self.mean_operator
        return (T is not None and getattr(self.oracle, "exact_mean", False)
                and getattr(self.oracle, "mean_operator", None) is T)

    def route(self, sl=None, mean=False):
        """The callable ``(rng, x, size, t=None)`` that draws ``size`` oracle
        samples at ``x`` (block ``sl`` only, if given), or with ``mean``
        their average; it is the one route to the oracle.  It reads the
        oracle's methods now, so a run resolves its draw sets when it starts.

        The average comes from the exact law when the oracle declares
        ``exact_mean``, a block from ``oracle.block`` when it has one (else
        the full draws are sliced).  Each call makes one oracle call, with
        ``size`` its fourth positional argument, and checks the output
        against the shape it must have.  ``t`` is T(x) as the caller
        evaluated it; the route forwards it only on the exact-mean route of
        an oracle that shares this problem's mean operator (see
        :attr:`oracle_shares_mean_operator`) and ignores it otherwise."""
        o, asarray = self.oracle, np.asarray
        exact = mean and getattr(o, "exact_mean", False)
        if sl is not None and (exact or getattr(o, "block", None) is not None):
            block, what, width, cut = o.block, "block ", len(range(self.dimension)[sl]), None
            draws = lambda rng, x, size, t: block(rng, x, size, sl)
            average = lambda rng, x, size, t: block(rng, x, size, sl, mean=True)
            shared = lambda rng, x, size, t: block(rng, x, size, sl, mean=True, t=t)
        else:  # the full draws, cut to block sl if given
            what, width, cut = "", self.dimension, sl
            draws = lambda rng, x, size, t: o(rng, x, size)
            average = lambda rng, x, size, t: o(rng, x, size, mean=True)
            shared = lambda rng, x, size, t: o(rng, x, size, mean=True, t=t)
        call = (shared if self.oracle_shares_mean_operator else average) if exact else draws

        def route(rng, x, size, t=None):
            out = asarray(call(rng, x, size, t), dtype=float)
            shape = (width,) if exact else (size, width)
            if out.shape != shape:
                raise OracleFailure(f"oracle {what}{'mean' if exact else 'batch'} has "
                                    f"shape {out.shape}, expected {shape}")
            if cut is not None:
                out = out[:, cut]
            return out if exact or not mean else out.mean(axis=0)

        return route


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
            raise InvalidParameters(f"max_iterations must be positive, got {self.max_iterations}")
        if self.coordination not in ("centralized", "distributed"):
            raise InvalidParameters(f"coordination {self.coordination!r} is not "
                                    "'centralized' or 'distributed'")
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


@dataclass(frozen=True, eq=False)
class RunPlan:
    """A validated (problem, config) pair and the tables every run of it
    reads, built once by :func:`validate`.

    ``draw_sets`` are a stage's (block, slice) pairs: ``(0, None)`` alone
    when sampling is centralized, one per agent when distributed.
    ``sizes`` holds the per-agent counts N_{k,i} for k = 0..max_iterations,
    ``rows[k]`` the counts of iteration k's draw sets as Python ints,
    ``alphas[k]`` the stepsize alpha_k, and ``cum_calls[k]`` the oracle
    calls billed before iteration k, 2 sum_(j<k) sum_i N_{j,i}.
    """

    problem: ProblemInstance
    config: SolverConfig
    report: ValidationReport
    draw_sets: tuple
    sizes: np.ndarray
    rows: tuple
    alphas: tuple
    cum_calls: np.ndarray


def validate(problem: ProblemInstance, config: SolverConfig) -> RunPlan:
    """Check every configuration-time condition the method relies on and
    return the run plan of the pair.

    The plan's report has one entry per check.  Raises immediately (rather
    than reporting) on the conditions that make a run meaningless: a stepsize
    at or above 1/(sqrt(6) L), sample counts still stalled near 1 at the
    ``schedule_tail_check`` horizon (the schedule's parameter region already
    makes sum_k 1/N_k finite; the check is analytic, not a scan), agent
    schedules that do not fit the blocks or the coordination, and counts
    beyond the int64 range by ``max_iterations``.  Re-running is idempotent
    and side-effect free.
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
        raise InvalidSchedule(f"sampling-rate tail not summable at finite horizon: {detail}")
    checks.append(CheckResult("sampling_rate_summable", True, detail))

    if config.coordination == "centralized" and m > 1:
        first = sched.agents[0]
        if any(a != first for a in sched.agents[1:]):
            raise CoordinationMismatch(
                "centralized sampling requires identical per-block sample counts")
    checks.append(CheckResult("sampling_coordination", True, config.coordination))

    # The block partition and the known solutions' feasibility and fixed-point
    # tests are construction-time invariants of ProblemInstance, not checks.
    if problem.mean_operator is None:
        checks.append(CheckResult(
            "mean_operator_available", False,
            "no closed-form mean operator: merits will be estimated"))
    if problem.variance_profile is None:
        checks.append(CheckResult(
            "variance_profile", False, "no variance descriptor supplied (informational)"))
    else:
        vp = problem.variance_profile
        checks.append(CheckResult("variance_profile", True, f"{vp.kind}, sigma={vp.sigma:g}"))

    K = config.max_iterations
    sizes = sched.sizes_upto(K)
    sizes.setflags(write=False)
    distributed = config.coordination == "distributed" and m > 1
    draw_sets = tuple(enumerate(problem.block_slices())) if distributed else ((0, None),)
    rows = tuple(map(tuple, sizes[:, :len(draw_sets)].tolist()))
    cum_calls = np.array(list(accumulate((2 * sum(r) for r in rows[:K]), initial=0)),
                         dtype=np.int64)
    cum_calls.setflags(write=False)
    return RunPlan(problem=problem, config=config, report=ValidationReport(tuple(checks)),
                   draw_sets=draw_sets, sizes=sizes, rows=rows,
                   alphas=tuple(map(config.stepsize_at, range(K + 1))),
                   cum_calls=cum_calls)
