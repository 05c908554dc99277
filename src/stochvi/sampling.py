"""Sample-rate schedules, harmonic aggregation and batch-mean evaluation.

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

from .errors import EmptyList, InvalidSchedule, NoMeanOperator


@dataclass(frozen=True)
class AgentSchedule:
    theta: float
    mu: float
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
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


def _ceil_snap(values):
    """Ceiling with a relative snap to the nearest integer.

    Guards against a representation error of an exactly integral value
    (e.g. 2 * 10^2 evaluated in floating point) inflating the count by one.
    """
    values = np.asarray(values, dtype=float)
    nearest = np.round(values)
    snap = np.abs(values - nearest) <= 1e-9 * np.maximum(1.0, np.abs(nearest))
    return np.where(snap, nearest, np.ceil(values)).astype(np.int64)


@dataclass(frozen=True)
class SampleSchedule:
    """Per-agent sample-rate parameters.

    ``harmonic(k)`` returns the aggregate N_k defined through
    1/N_k = sum_i 1/N_{k,i}; it is a real number (harmonic means are not
    integers) and only the per-agent counts drive actual draws.
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

    def size(self, agent: int, k: int) -> int:
        return int(self.sizes_upto(k, agents=(agent,))[k, 0])

    def sizes(self, k: int) -> np.ndarray:
        return self.sizes_upto(k)[k]

    def sizes_upto(self, k_max: int, agents=None) -> np.ndarray:
        """Integer array of shape (k_max + 1, m) of per-agent counts."""
        if k_max < 0:
            raise InvalidSchedule("iteration index must be nonnegative")
        idx = agents if agents is not None else range(self.n_agents)
        k = np.arange(k_max + 1, dtype=float)
        cols = []
        for i in idx:
            ag = self.agents[i]
            base = k + ag.mu
            vals = ag.theta * base ** (1.0 + ag.a) * np.log(base) ** (1.0 + ag.b)
            cols.append(np.maximum(_ceil_snap(vals), 1))
        return np.stack(cols, axis=1)

    def harmonic(self, k: int) -> float:
        return harmonic_aggregate(self.sizes(k))[0]

    def harmonic_upto(self, k_max: int) -> np.ndarray:
        sizes = self.sizes_upto(k_max)
        return 1.0 / np.sum(1.0 / sizes, axis=1)

    def to_config(self):
        return [{"theta": a.theta, "mu": a.mu, "a": a.a, "b": a.b} for a in self.agents]

    @classmethod
    def from_config(cls, cfg):
        from .errors import ConfigError

        entries = cfg if isinstance(cfg, list) else [cfg]
        agents = []
        for e in entries:
            extra = set(e) - {"theta", "mu", "a", "b"}
            if extra:
                raise ConfigError(f"unknown schedule keys {sorted(extra)}")
            agents.append(AgentSchedule(
                float(e["theta"]), float(e["mu"]),
                float(e.get("a", 0.0)), float(e.get("b", 1.0))))
        return cls(tuple(agents))


def sample_size(schedule: SampleSchedule, agent: int, k: int) -> int:
    """N_{k,i} for one agent; always >= 1 and nondecreasing in k."""
    return schedule.size(agent, k)


def harmonic_aggregate(sizes):
    """Aggregate count N_k with 1/N_k = sum_i 1/N_{k,i}; also returns min_i N_{k,i}."""
    sizes = np.asarray(sizes, dtype=float)
    if sizes.size == 0:
        raise EmptyList("harmonic aggregate of an empty list")
    if np.any(sizes < 1):
        raise InvalidSchedule("sample counts must be >= 1")
    return float(1.0 / np.sum(1.0 / sizes)), int(np.min(sizes))


def schedule_tail_check(schedule: SampleSchedule, horizon: int = 10 ** 6,
                        window: int = 10, tol: float = 1e-6):
    """Finite-horizon summability check of sum_k 1/N_k.

    The partial sums over the final ``window`` indices of the horizon must
    move by at most ``tol``; a schedule whose counts stall near 1 fails.
    Returns (ok, detail).  The companion per-agent condition
    sum_k 1/min_i N_{k,i} < inf is reported informationally in the detail.
    """
    inv = 1.0 / schedule.sizes_upto(horizon)
    inv_agg = np.sum(inv, axis=1)          # 1/N_k
    total = float(np.sum(inv_agg))
    tail = float(np.sum(inv_agg[horizon - window:]))
    inv_min = np.max(inv, axis=1)          # 1/min_i N_{k,i}
    tail_min = float(np.sum(inv_min[horizon - window:]))
    ok = tail <= tol * max(1.0, total)
    detail = (f"sum_(k<={horizon}) 1/N_k = {total:.6g}, last-{window} increment "
              f"{tail:.3g} (aggregate) / {tail_min:.3g} (per-agent minimum)")
    return ok, detail


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


@dataclass(frozen=True)
class BatchMeanResult:
    """Empirical oracle average at a point: mean vector, draw count, and the
    realized error mean - T(x) when the closed-form mean operator exists."""

    mean: np.ndarray
    calls: int
    error: np.ndarray | None = None


def batch_mean(problem, x, n_samples: int, key) -> BatchMeanResult:
    """Average of ``n_samples`` fresh oracle draws from the keyed stream.

    Every draw is made and averaged, even for an oracle that can draw the
    average from its exact law: the solver takes that shortcut, but on it the
    1/N error-decay law holds by construction, so ``error_decay_probe``
    (acceptance criterion 2) would check nothing.
    """
    from .core import derive_stream

    if n_samples < 1:
        raise InvalidSchedule("batch size must be >= 1")
    x = np.asarray(x, dtype=float)
    rng = derive_stream(key)
    batch = problem.oracle_batch(rng, x, n_samples)
    mean = batch.mean(axis=0)
    if not np.all(np.isfinite(mean)):
        from .errors import OracleFailure

        raise OracleFailure("oracle batch mean is not finite")
    err = None
    if problem.mean_operator is not None:
        err = mean - np.asarray(problem.mean_operator(x), dtype=float)
    return BatchMeanResult(mean=mean, calls=int(n_samples), error=err)


def error_decay_probe(problem, x, n_grid, replications: int, master_seed: int = 0):
    """Monte Carlo check of the 1/N error-decay law at a fixed point.

    For each batch size N in ``n_grid``, estimates E||eps_N||^2 over
    ``replications`` independent batches and returns rows of
    (N, mean_sq_error, stderr, N * mean_sq_error).  The product column is
    flat in N exactly when the empirical average error variance scales like
    the single-draw variance divided by N.
    """
    from .core import RngStreamKey

    if problem.mean_operator is None:
        raise NoMeanOperator("error decay probe needs the closed-form mean operator")
    rows = []
    for j, n in enumerate(n_grid):
        sq = np.empty(replications)
        for r in range(replications):
            key = RngStreamKey(master_seed, replication=r, iteration=j, stage=1)
            res = batch_mean(problem, x, int(n), key)
            sq[r] = float(res.error @ res.error)
        mean_sq = float(np.mean(sq))
        stderr = float(np.std(sq, ddof=1) / math.sqrt(replications)) if replications > 1 else 0.0
        rows.append({"N": int(n), "mean_sq_error": mean_sq,
                     "stderr": stderr, "product": n * mean_sq})
    return rows
