"""Sample-rate schedules, their 1/N_k series and tail bounds, and the
error-decay probe.

The per-agent sample count at iteration k is

    N_{k,i} = ceil( theta_i * (k + mu_i)^(1 + a_i) * ln(k + mu_i)^(1 + b_i) )

with theta_i > 0, mu_i > 2 and either a_i > 0, b_i >= -1 or a_i = 0, b_i > 0
(the minimum requirement for the aggregate 1/N_k sums to converge).
All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameters,
    InvalidSchedule,
    NoMeanOperator,
    OracleFailure,
    from_document,
)


@dataclass(frozen=True)
class AgentSchedule:
    theta: float
    mu: float
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        for name in ("theta", "mu", "a", "b"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSchedule(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.theta > 0:
            raise InvalidSchedule("theta must be positive")
        if not self.mu > 2:
            raise InvalidSchedule("mu must exceed 2")
        if self.a < 0:
            raise InvalidSchedule("exponent a must be nonnegative")
        if self.a > 0:
            if self.b < -1:
                raise InvalidSchedule("a > 0 requires b >= -1")
        elif not self.b > 0:
            raise InvalidSchedule("a = 0 requires b > 0 (sum of 1/(k ln k) diverges)")

    def tail_bound(self, k) -> float:
        """Integral-test bound B(k) >= sum_(j > k) 1/N_j, valid for k >= 1.

        1/N_j <= f(j) with f(x) = 1 / (theta (x+mu)^(1+a) ln(x+mu)^(1+b))
        decreasing, so the tail is at most the integral of f from k:
        1/(theta a (k+mu)^a) for a > 0 (dropping ln(x+mu)^(1+b) >= 1, which
        needs x + mu >= e and so holds for k >= 1), and
        1/(theta b ln(k+mu)^b) for a = 0.
        """
        t = k + self.mu
        if self.a > 0:
            return 1.0 / (self.theta * self.a * t ** self.a)
        return 1.0 / (self.theta * self.b * math.log(t) ** self.b)

    def tail_bound_sq(self, k) -> float:
        """Integral-test bound >= sum_(j > k) 1/N_j^2, valid for k >= 0:
        1/(theta^2 (1 + 2a) (k+mu)^(1+2a) ln(k+mu)^(2+2b)), since
        ln(x+mu)^-(2+2b) is nonincreasing for b >= -1."""
        t = k + self.mu
        return 1.0 / (self.theta ** 2 * (1.0 + 2.0 * self.a) * t ** (1.0 + 2.0 * self.a)
                      * math.log(t) ** (2.0 + 2.0 * self.b))


@dataclass(frozen=True)
class SampleSchedule:
    """Per-agent sample-rate parameters and the summability argument.

    The aggregate count N_k is defined through 1/N_k = sum_i 1/N_{k,i}; it
    is a real number (harmonic means are not integers) and only the
    per-agent counts drive actual draws.  Every guarantee rests on
    sum_k 1/N_k < inf (and sum_k 1/N_k^2 for complexity): ``inverse_series``
    tabulates the heads of 1/N_k and 1/min_i N_{k,i}, ``tail_bound`` and
    ``tail_bound_sq`` bound what lies past a tabulated head.
    ``schedule_tail_check`` (validation) and ``stochvi.constants`` read the
    series through these methods.
    """

    agents: tuple

    def __post_init__(self):
        agents = tuple(self.agents)
        if not agents:
            raise InvalidSchedule("schedule needs at least one agent")
        object.__setattr__(self, "agents", agents)

    @classmethod
    def uniform(cls, theta, mu, a=0.0, b=1.0, m=1):
        return cls((AgentSchedule(theta, mu, a, b),) * m)

    @property
    def n_agents(self):
        return len(self.agents)

    def broadcast(self, m: int) -> "SampleSchedule":
        if self.n_agents == m:
            return self
        if self.n_agents == 1:
            return SampleSchedule(self.agents * m)
        raise InvalidSchedule(
            f"schedule has {self.n_agents} agents, problem has {m} blocks")

    def counts(self, k) -> np.ndarray:
        """Per-agent counts N_{k,i} as floats at the indices ``k``, shape
        (len(k), m), so they cannot wrap however large they grow.

        The ceiling snaps to the nearest integer within a relative 1e-9, so
        a representation error of an exactly integral value (e.g. 2 * 10^2
        evaluated in floating point) does not inflate the count by one; every
        count is at least 1.
        """
        k = np.asarray(k, dtype=float)
        if np.any(k < 0):
            raise InvalidSchedule("iteration index must be nonnegative")
        cols = []
        for ag in self.agents:
            base = k + ag.mu
            vals = ag.theta * base ** (1.0 + ag.a) * np.log(base) ** (1.0 + ag.b)
            nearest = np.round(vals)
            snap = np.abs(vals - nearest) <= 1e-9 * np.maximum(1.0, np.abs(nearest))
            cols.append(np.maximum(np.where(snap, nearest, np.ceil(vals)), 1.0))
        return np.stack(cols, axis=-1)

    def sizes_upto(self, k_max: int) -> np.ndarray:
        """Integer array of shape (k_max + 1, m) of per-agent counts.

        Raises ``InvalidSchedule`` where a count does not fit in int64.
        """
        if k_max < 0:
            raise InvalidSchedule("iteration index must be nonnegative")
        counts = self.counts(np.arange(k_max + 1))
        over = np.argwhere(counts >= 2.0 ** 63)
        if over.size:
            k, agent = over[0]
            raise InvalidSchedule(
                f"agent {agent}: N_k = {counts[k, agent]:.3g} at k = {k} "
                "exceeds the int64 range")
        return counts.astype(np.int64)

    def inverse_series(self, k):
        """(1/N_k, 1/min_i N_{k,i}) at the indices ``k``: the aggregate series
        and the per-agent-minimum series, each of shape (len(k),)."""
        inv = 1.0 / self.counts(k)
        return np.sum(inv, axis=1), np.max(inv, axis=1)

    def tail_bound(self, k) -> float:
        """Bound on sum_(j > k) 1/N_j: the agents' integral-test bounds summed."""
        total = 0.0
        for ag in self.agents:
            total += ag.tail_bound(k)
        return total

    def tail_bound_sq(self, k) -> float:
        """Bound on sum_(j > k) 1/N_j^2: the agents' bounds combined by the
        l2 triangle inequality, (sum_i sqrt(B2_i(k)))^2."""
        root = 0.0
        for ag in self.agents:
            root += math.sqrt(ag.tail_bound_sq(k))
        return root ** 2

    @classmethod
    def from_config(cls, cfg):
        entries = cfg if isinstance(cfg, list) else [cfg]
        return cls(tuple(from_document(AgentSchedule, e, "schedule") for e in entries))


def schedule_tail_check(schedule: SampleSchedule, horizon: int = 10 ** 6,
                        window: int = 10, tol: float = 1e-6):
    """Finite-horizon check that sum_k 1/N_k has settled by ``horizon``.

    The parameter region ``AgentSchedule`` enforces is exactly the condition
    sum_k 1/N_k < inf, so every valid schedule is summable; this check
    catches counts still stalled near 1 at the horizon (e.g. theta = 1e-30),
    whose series has not begun to settle.  The increment over the final
    ``window`` indices must be at most ``tol * max(1, total)``, where
    ``total`` bounds sum_(k <= horizon) 1/N_k per agent by
    min(horizon + 1, 1/N_0 + 1/N_1 + B(1) - B(horizon)) with the integral
    bound B of ``AgentSchedule.tail_bound``; no O(horizon) work is done.
    Raises ``InvalidSchedule`` if it is not.  Both series come from
    ``SampleSchedule.inverse_series``; the companion per-agent condition
    sum_k 1/min_i N_{k,i} < inf is named informationally in the message.
    """
    agg, per_min = schedule.inverse_series(np.arange(max(horizon - window, 0), horizon + 1))
    tail, tail_min = float(np.sum(agg)), float(np.sum(per_min))
    head = 1.0 / schedule.counts([0, 1])
    total = sum(min(horizon + 1.0, h0 + h1 + ag.tail_bound(1) - ag.tail_bound(horizon))
                for ag, h0, h1 in zip(schedule.agents, head[0], head[1]))
    if not tail <= tol * max(1.0, total):
        raise InvalidSchedule(
            f"sampling-rate tail not summable at finite horizon: sum_(k<={horizon}) 1/N_k "
            f"<= {total:.6g}, last-{window} increment {tail:.3g} (aggregate) / "
            f"{tail_min:.3g} (per-agent minimum)")


def network_exponents(m: int, base: float, S: float = 1.0):
    """Decreasing exponent sequence b_1..b_m with b_m = base for a network.

    For i >= 2 the construction b_i = base + 2 ln(m+1) - 2 ln(i+1) makes
    b_i + 2 ln(i+1) constant, and b_1 is then set to that constant minus
    ln(S) (clipped below b_2 never applies for S <= 9, and clipping keeps
    the inequality valid for larger S).  The returned sequence is re-checked
    against the defining inequality; the verification is the contract, the
    construction is only a recipe.
    """
    if m < 1:
        raise InvalidSchedule("network size must be >= 1")
    if S < 1:
        raise InvalidSchedule("scaling factor S must be >= 1")
    if m == 1:
        return [float(base)]
    b = [base + 2.0 * math.log(m + 1) - 2.0 * math.log(i + 1) for i in range(2, m + 1)]
    lead = base + 2.0 * math.log(m + 1) - math.log(S)
    b = [max(lead, b[0])] + b
    assert verify_network_exponents(b, S), "constructed exponents failed verification"
    return b


def verify_network_exponents(b, S: float = 1.0) -> bool:
    """Check b decreasing and b_1 >= b_i + 2 ln(i+1) - ln(S) for i >= 2.

    The i = 1 instance of the inequality is self-referential and only
    satisfiable when ln(S) >= 2 ln 2; it is checked exactly in that case.
    """
    b = list(b)
    if any(b[i] < b[i + 1] - 1e-12 for i in range(len(b) - 1)):
        return False
    start = 1 if S < 4.0 else 0
    for i in range(start, len(b)):
        if b[0] < b[i] + 2.0 * math.log(i + 2) - math.log(S) - 1e-12:
            return False
    return True


def error_decay_probe(problem, x, n_grid, replications: int, master_seed: int = 0):
    """Monte Carlo check of the 1/N error-decay law at a fixed point.

    For each batch size N in ``n_grid``, estimates E||eps_N||^2 over
    ``replications`` independent batches and returns rows of
    (N, mean_sq_error, stderr, N * mean_sq_error).  The product column is
    flat in N exactly when the empirical average error variance scales like
    the single-draw variance divided by N.  Batch r of the j-th size draws
    on stream (r, j, 1, 0) of one keyer, through one call of the
    problem's route per size, without T(x): every draw is made and averaged,
    even for an oracle that can draw the average from its exact law, on
    which the 1/N law holds by construction and acceptance criterion 2
    would check nothing.
    The standard errors need at least two replications.
    """
    from .core import streams

    if replications < 2:
        raise InvalidParameters("error decay probe needs at least 2 replications")
    if problem.mean_operator is None:
        raise NoMeanOperator("error decay probe needs the closed-form mean operator")
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dimension,):
        raise DimensionMismatch(f"x must have shape ({problem.dimension},)")
    if not np.isfinite(x).all():
        raise InvalidParameters(f"x must be finite, got {x.tolist()}")
    draw, t = problem.route(), np.asarray(problem.mean_operator(x), dtype=float)
    rows, keyed = [], streams(master_seed)
    X = np.broadcast_to(x, (replications, problem.dimension))
    for j, n in enumerate(n_grid):
        errs = draw(keyed(range(replications), j, 1, 0), X, int(n)) - t
        if not np.isfinite(errs).all():
            raise OracleFailure(f"oracle batch mean error is not finite at N = {n}")
        sq = np.vecdot(errs, errs)
        mean_sq = float(np.mean(sq))
        stderr = float(np.std(sq, ddof=1) / math.sqrt(replications))
        rows.append({"N": int(n), "mean_sq_error": mean_sq,
                     "stderr": stderr, "product": n * mean_sq})
    return rows
