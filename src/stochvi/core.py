"""Problem and configuration model shared by all other modules.

The stochastic oracle contract:

* ``oracle(rng, x, size)`` returns an array of shape ``(size, n)`` whose
  rows are independent draws of the random operator at ``x`` -- one row per
  oracle call.
* ``oracle.block(rng, x, size, sl)`` (optional) returns only the component
  block ``sl``, a slice, of each draw; the route draws through it whenever
  the oracle has one.  Each distributed agent owns an independent sample
  stream, so restricting generation to the block an agent consumes changes
  no observable quantity.  Without it the full draws are cut to ``sl``.
* ``oracle.exact_error = True`` (optional) declares that ``block`` also
  accepts ``error=True`` and then returns, in the block's shape, the average
  of ``size`` draws of the error F(xi, x) - T(x), drawn from its exact law.
* :meth:`ProblemInstance.route` is the one route by which the package calls
  an oracle, and what it returns is a stage's averages, never raw draws.
  ``route(sl)`` takes the block as a slice, ``slice(None)`` for the whole
  point.  A call ``route(rngs, X, size, TX=None)`` takes a batch of points
  ``X`` and returns one average per row, drawing row r on the r-th
  generator of ``rngs``, which it takes only once row r-1 is drawn, so
  ``rngs`` may yield one generator re-keyed for each row.  Each row is one
  oracle call with ``size`` its fourth positional argument, and bills
  ``size`` calls.  On a problem with a ``mean_operator`` and an oracle
  declaring ``exact_error``, a call handed T(X), as the caller evaluated it
  once for the points, returns T(X) plus the errors drawn through
  ``block``; every other call draws each row's batch and averages it.  The
  solver hands T(X) over; ``error_decay_probe`` and the harness's surrogate
  do not, so acceptance criterion 2 sees every draw.  The solver resolves
  each draw set's route once per run, when the run starts, so the oracle's
  methods are read then; ``error_decay_probe`` and the surrogate resolve
  one each.
* The generator ``rng`` handed to an oracle is valid only for that call:
  the solver re-keys the same generator for the next row and stage, so an
  oracle must not keep it, or anything drawn lazily from it, past its
  return.

Run-time randomness has one source, the row keyer :func:`streams` returns:
the solver, the probes, the baselines and the harness's surrogate each take
a keyer of their own.  :func:`derive_stream`, on the same key fields, is
the reference they equal bit for bit.

The mean-operator contract: ``mean_operator(X)`` maps points of shape
``(..., n)`` row by row to the same shape, as projections do, so merits
and audits take a whole trace in one call.  :func:`check_mean_operator`
enforces it; a single-point ``lambda x: A @ x`` fails with
``DimensionMismatch``.  ``np.matvec(A, X)`` gives each row the single-point
``A @ x`` bit for bit (``np.vecdot`` likewise); ``X @ A.T`` does not.
"""

from __future__ import annotations

import hashlib
import math
import numbers
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
from .projection import (
    _SEPARABLE,
    CartesianProduct,
    FeasibleSet,
    block_slices,
    project,
    set_distance,
)
from .sampling import SampleSchedule, schedule_tail_check

_KEY_FIELDS, _KEY_WORDS = struct.Struct("<qqqqqq"), struct.Struct("<QQ")


def _philox_key(master_seed, replication, iteration, stage, block, sample=0):
    """128-bit Philox key of the stream with these six key fields: packed as
    little-endian int64, hashed with SHA-256, the first 16 bytes read as two
    little-endian uint64, returned as Python ints (the Philox state setter
    reads ints faster than array elements)."""
    return _KEY_WORDS.unpack_from(hashlib.sha256(_KEY_FIELDS.pack(
        master_seed, replication, iteration, stage, block, sample)).digest())


def _check_key(value, field="master_seed"):
    if not -2 ** 63 <= value < 2 ** 63:
        raise InvalidParameters(f"{field} {value} is outside the signed 64-bit "
                                "range of a stream key")


def derive_stream(master_seed, replication=0, iteration=0, stage=1, block=0, sample=0):
    """The stream of the key (master_seed, replication, iteration, stage,
    block, sample), ``stage`` 1 for the prediction step and 2 for the
    correction step.  The fields are hashed into a 128-bit Philox key, so
    derivation is pure and order-independent and distinct keys give
    independent streams.  It is the reference for :func:`streams`, whose
    keyer takes the same fields after ``master_seed``, replications for
    ``replication``.  A ``master_seed`` outside the signed 64-bit range
    raises ``InvalidParameters``."""
    _check_key(master_seed)
    if stage not in (1, 2):
        raise InvalidParameters("stage must be 1 or 2")
    return np.random.Generator(np.random.Philox(key=np.array(_philox_key(
        master_seed, replication, iteration, stage, block, sample), dtype=np.uint64)))


def streams(master_seed):
    """``keyed(replications, iteration, stage, block, sample=0)``, the one
    maker of run-time streams: it yields one Philox generator, owned by this
    call of ``streams``, re-keyed in turn to the stream ``derive_stream``
    gives each replication's key (a Philox stream is fixed by its key and
    counter alone), each valid until the next is taken: the ``rngs`` of a
    route call.  Consumers that may run inside one another each call
    ``streams`` for their own.  A ``master_seed`` outside the signed 64-bit
    range raises ``InvalidParameters`` here, once, and not at a re-key."""
    _check_key(master_seed)
    bits = np.random.Philox(0)  # no OS entropy; every re-key replaces the key
    rng = np.random.Generator(bits)
    fresh = bits.state  # counter zero, empty buffer, no cached uint32
    # as Python ints: the state setter reads them faster than array elements
    words = fresh["state"] = {name: v.tolist() for name, v in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    pack, sha256, unpack = _KEY_FIELDS.pack, hashlib.sha256, _KEY_WORDS.unpack_from

    def keyed(replications, iteration, stage, block, sample=0):
        # _philox_key inlined: this runs once per row and stage
        for replication in replications:
            words["key"] = unpack(sha256(pack(
                master_seed, replication, iteration, stage, block, sample)).digest())
            bits.state = fresh
            yield rng

    return keyed


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


@dataclass(frozen=True, kw_only=True)
class ProblemInstance:
    """A stochastic variational inequality: find x* in X with
    <T(x*), x - x*> >= 0 for all x in X, where T(x) = E[F(xi, x)] is only
    accessible through the sampling oracle.

    ``mean_operator`` is the closed-form T used by merit functions and
    diagnostics; ``lipschitz_L`` is a known Lipschitz modulus of T (an input,
    never estimated silently).  ``blocks`` partitions the coordinates among
    agents; a single block recovers the monolithic problem.  With more than
    one block the feasible set must be a product along them: a separable
    set (whole space, orthant, box), which is one along any partition, or a
    ``CartesianProduct`` whose ``sizes`` are the blocks.  To re-partition a
    problem, ``dataclasses.replace(problem, blocks=...)``.  ``solution_set``
    is X* (None if unknown), one solution x* as ``Box(x*, x*)``; its anchor
    (``merit.anchor``) must lie in X and pass the fixed-point test.
    """

    dimension: int
    oracle: object
    lipschitz_L: float
    feasible_set: FeasibleSet
    blocks: tuple = ()
    mean_operator: object = None
    solution_set: FeasibleSet | None = None
    name: str = ""

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidParameters("dimension must be positive")
        if not self.lipschitz_L > 0:
            raise InvalidParameters("lipschitz_L must be positive")
        blocks = tuple(int(b) for b in (self.blocks or (self.dimension,)))
        if min(blocks) < 1:
            raise BlockMismatch(f"blocks {blocks} must each hold at least one coordinate")
        if sum(blocks) != self.dimension:
            raise BlockMismatch(
                f"blocks {blocks} do not sum to dimension {self.dimension}")
        object.__setattr__(self, "blocks", blocks)
        fset = self.feasible_set
        fset.check_dim(self.dimension)
        if len(blocks) > 1 and not (isinstance(fset, _SEPARABLE) or isinstance(
                fset, CartesianProduct) and fset.sizes == blocks):
            raise BlockMismatch(f"blocks {blocks} need a whole space, orthant or box, or a "
                                "Cartesian feasible set with the same blocks")
        T = self.mean_operator
        if T is not None:
            check_mean_operator(T, fset, self.dimension)
        if self.solution_set is None:
            return
        if getattr(self.solution_set, "dim", None) not in (None, self.dimension):
            raise BlockMismatch(f"solution set has dimension {self.solution_set.dim}, "
                                f"problem has {self.dimension}")
        from .merit import anchor, natural_residual_sq

        x_hat = anchor(self)
        if set_distance(fset, x_hat) > 1e-10:
            raise InvalidParameters("anchor of X* lies outside the feasible set")
        if T is not None and (r2 := natural_residual_sq(
                T, fset, x_hat, 0.1 / self.lipschitz_L)) > 1e-20:
            raise InvalidParameters(f"anchor of X* fails the fixed-point test: r^2 = {r2:.3e}")

    def route(self, sl=slice(None)):
        """The one route to the oracle: ``(rngs, X, size, TX=None)`` returns,
        as a ``(len(X), width)`` array, the average of ``size`` oracle draws
        at each row of ``X``, block ``sl`` of each (a slice; the whole point
        by default), drawing row r on the r-th generator of ``rngs``, and
        bills ``size`` calls per row.  It takes each generator only after the
        previous row is drawn.  It reads the oracle's methods now, so a run
        resolves its draw sets when it starts.

        Handed ``TX`` = T(X), on a problem with a ``mean_operator`` whose
        oracle declares ``exact_error``, it returns ``TX[:, sl]`` plus the
        errors drawn from their exact law by ``oracle.block``, stacked and
        checked once; such an oracle without ``block`` raises
        ``OracleFailure`` now.  Else it averages each row's draws, from
        ``oracle.block`` if the oracle has one, or the full draws cut to
        ``sl``.  A ``size`` below 1 raises ``InvalidSchedule``.  Each row
        makes one oracle call, with ``size`` its fourth positional argument,
        and the output's shape is checked; callers check that the averages
        are finite."""
        o, asarray, add_rows, empty = self.oracle, np.asarray, np.add.reduce, np.empty
        exact = self.mean_operator is not None and getattr(o, "exact_error", False)
        block = getattr(o, "block", None)
        if exact and block is None:
            raise OracleFailure("an oracle declaring exact_error must have a block method")
        width = len(range(self.dimension)[sl])
        if block is not None:
            what, cut, drawn = "block ", slice(None), width
            draw = lambda rng, x, size: block(rng, x, size, sl)
        else:  # the full draws, cut to block sl
            what, cut, drawn, draw = "", sl, self.dimension, o

        def route(rngs, X, size, TX=None):
            if size < 1:
                raise InvalidSchedule("batch size must be >= 1")
            if TX is not None and exact:
                errors = [block(rng, x, size, sl, error=True) for x, rng in zip(X, rngs)]
                expected = (len(errors), width)
                try:
                    E = asarray(errors, dtype=float)
                except ValueError as exc:  # rows of unequal shapes
                    raise OracleFailure("oracle block errors do not stack to shape "
                                        f"{expected}: {exc}") from None
                if E.shape != expected:
                    raise OracleFailure(f"oracle block errors have shape {E.shape}, "
                                        f"expected {expected}")
                return asarray(TX, dtype=float)[:, sl] + E
            means = empty((len(X), width))
            for r, (x, rng) in enumerate(zip(X, rngs)):
                out = asarray(draw(rng, x, size), dtype=float)
                if out.shape != (size, drawn):
                    raise OracleFailure(f"oracle {what}batch has shape {out.shape}, "
                                        f"expected {(size, drawn)}")
                # the sum and division ndarray.mean makes, without its Python wrapper
                means[r] = add_rows(out[:, cut], axis=0) / size
            return means

        return route


def stepsize_cap(L, alphas):
    """The cap 1/(sqrt(6) L), after raising ``InvalidStepsize`` unless each of
    ``alphas`` lies in (0, cap): the one check behind ``validate``,
    ``constants.rho`` and ``ConstantsInputs``."""
    cap = 1.0 / (math.sqrt(6.0) * L)
    if not all(a > 0 for a in alphas):
        raise InvalidStepsize("stepsize sequence must be bounded away from zero")
    if not all(a < cap for a in alphas):
        raise InvalidStepsize(
            f"sup stepsize {max(alphas):.6g} must be < 1/(sqrt(6) L) = {cap:.6g}")
    return cap


@dataclass(frozen=True, kw_only=True)
class SolverConfig:
    """Extragradient run parameters.

    ``stepsize`` is a constant or a bounded sequence, extended by its last
    value and kept as a tuple of floats (a constant as a 1-tuple); the whole
    sequence must satisfy 0 < inf alpha_k <= sup alpha_k < 1/(sqrt(6) L).
    ``coordination`` selects the sampling mode for multi-block problems:
    'centralized' shares one draw set per stage across blocks, 'distributed'
    gives each block its own independent draws.
    """

    stepsize: tuple
    schedule: SampleSchedule
    max_iterations: int
    coordination: str = "centralized"
    master_seed: int = 0
    diagnostics: bool = False
    residual_floor: float = 1e-24

    def __post_init__(self):
        K = self.max_iterations
        if isinstance(K, bool) or not isinstance(K, numbers.Integral):
            raise InvalidParameters(f"max_iterations must be an integer, got {K!r}")
        if K < 1:
            raise InvalidParameters(f"max_iterations must be positive, got {K}")
        if math.isnan(self.residual_floor):
            raise InvalidParameters("residual_floor must not be NaN")
        if self.coordination not in ("centralized", "distributed"):
            raise InvalidParameters(f"coordination {self.coordination!r} is not "
                                    "'centralized' or 'distributed'")
        alphas = np.asarray(self.stepsize, dtype=float)
        if alphas.ndim > 1 or alphas.size == 0:
            raise InvalidStepsize("stepsize must be a number or a nonempty sequence of "
                                  f"numbers, got {self.stepsize!r}")
        object.__setattr__(self, "stepsize", tuple(alphas.ravel().tolist()))


@dataclass(frozen=True, eq=False)
class RunPlan:
    """A validated (problem, config) pair and the tables every run of it
    reads, built once by :func:`validate`.

    ``draw_sets`` are a stage's (block, slice) pairs: ``(0, slice(None))``
    alone when sampling is centralized, one per agent when distributed.
    ``rows[k]`` holds the counts N_{k,i} of iteration k's draw sets as
    Python ints for k = 0..max_iterations; two read-only arrays, which the
    plan's traces view, hold the stepsize alpha_k at ``alphas[k]`` and the
    oracle calls billed before iteration k, 2 sum_(j<k) sum_i N_{j,i}, at
    ``cum_calls[k]``.
    """

    problem: ProblemInstance
    config: SolverConfig
    draw_sets: tuple
    rows: tuple
    alphas: np.ndarray
    cum_calls: np.ndarray


def validate(problem: ProblemInstance, config: SolverConfig) -> RunPlan:
    """Check every configuration-time condition the method relies on and
    return the run plan of the pair.

    Raises on the conditions that make a run meaningless: a stepsize at or
    above 1/(sqrt(6) L), sample counts still stalled near 1 at the
    ``schedule_tail_check`` horizon (the schedule's parameter region already
    makes sum_k 1/N_k finite; the check is analytic, not a scan), agent
    schedules that do not fit the blocks or the coordination, and a
    ``max_iterations`` whose billed total could leave the int64 range,
    bounded from the last row of counts before any table is built.  The
    block partition and the solution set's anchor tests are construction
    invariants of ``ProblemInstance``.  Re-running
    is idempotent and side-effect free.
    """
    stepsize_cap(problem.lipschitz_L, config.stepsize)
    m = len(problem.blocks)
    sched = config.schedule.broadcast(m)  # raises InvalidSchedule on shape mismatch
    schedule_tail_check(sched)
    if config.coordination == "centralized" and m > 1:
        first = sched.agents[0]
        if any(a != first for a in sched.agents[1:]):
            raise CoordinationMismatch(
                "centralized sampling requires identical per-block sample counts")

    K = config.max_iterations
    # cum_calls[K] <= 2 K sum_i N_{K,i}, since counts never decrease in k
    if K >= 2 ** 62 or 2.0 * K * float(sched.counts([K]).sum()) >= 2.0 ** 63:
        raise InvalidSchedule(f"max_iterations = {K} could bill more oracle calls "
                              "than the int64 range holds")
    distributed = config.coordination == "distributed" and m > 1
    draw_sets = tuple(enumerate(block_slices(problem.blocks) if distributed else (slice(None),)))
    rows = tuple(map(tuple, sched.sizes_upto(K)[:, :len(draw_sets)].tolist()))
    cum_calls = np.array(list(accumulate((2 * sum(r) for r in rows[:K]), initial=0)),
                         dtype=np.int64)
    alphas = np.array(config.stepsize)[np.minimum(np.arange(K + 1), len(config.stepsize) - 1)]
    cum_calls.setflags(write=False)
    alphas.setflags(write=False)
    return RunPlan(problem=problem, config=config, draw_sets=draw_sets, rows=rows,
                   alphas=alphas, cum_calls=cum_calls)
