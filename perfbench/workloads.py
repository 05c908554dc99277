"""Workload configs, the independent billing formula, and output checks.

Each workload is a ``stochvi experiment`` config document generated from the
benchmark seed, which becomes the solver's ``master_seed``.  Problems,
schedules and sizes are fixed so that every seed bills the same oracle calls.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

SCHEDULE = {"theta": 1, "mu": 3, "a": 0, "b": 1}
SLOPE_BAND = (-1.8, -0.85)  # acceptance criterion 1


def _rate_ensemble(seed):
    """Criterion-1 ensemble: late stages average ~1e4 additive draws, so
    drawing and batch means dominate a pass."""
    return {
        "schema_version": 1,
        "problem": {"kind": "strongly_monotone", "n": 5, "seed": 3,
                    "noise_scale": 1.0, "center": [0.0] * 5},
        "solver": {"stepsize": 0.25, "schedule": dict(SCHEDULE),
                   "max_iterations": 300, "coordination": "centralized",
                   "master_seed": seed},
        "replications": 10,
        "x0": [1.0] * 5,
        "rate_fit_window": [20, 300],
        "epsilon": 1e-4,
        "threads": 1,
    }


def _linear_svi(seed):
    """One 8x8 Gaussian matrix per billed draw with x-dependent variance:
    the oracle used differently from additive noise."""
    from stochvi.harness import problem_from_config

    problem = {"kind": "linear_svi", "n": 8, "seed": 42, "noise_scale": 0.3,
               "feasible": "orthant"}
    L = problem_from_config(problem).lipschitz_L
    return {
        "schema_version": 1,
        "problem": problem,
        "solver": {"stepsize": 0.25 / L, "schedule": dict(SCHEDULE),
                   "max_iterations": 200, "coordination": "centralized",
                   "master_seed": seed},
        "replications": 2,
        "x0": [2.0] * 8,
        "epsilon": 1e-4,
        "threads": 1,
    }


def _short_agents(seed):
    """Three distributed agents, K=20, 100 replications a pass: stages
    average at most ~200 draws, so stream derivation, solver Python and
    blockwise projection dominate a pass.  A pass takes about a second, so
    a run holds dozens of passes, each bracketed by the speed reference."""
    box_ball_orthant = {
        "variant": "cartesian", "sizes": [2, 2, 1],
        "parts": [{"variant": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
                  {"variant": "ball", "center": [0.0, 0.0], "radius": 1.0},
                  {"variant": "nonnegative_orthant", "dim": 1}],
    }
    return {
        "schema_version": 1,
        "problem": {"kind": "strongly_monotone", "n": 5, "seed": 3,
                    "noise_scale": 1.0, "center": [0.0] * 5,
                    "set": box_ball_orthant, "blocks": [2, 2, 1]},
        "solver": {"stepsize": 0.25, "schedule": dict(SCHEDULE),
                   "max_iterations": 20, "coordination": "distributed",
                   "master_seed": seed},
        "replications": 100,
        "x0": [1.5] * 5,
        "epsilon": 1e-2,
        "threads": 1,
    }


GENERATORS = {
    "rate_ensemble": _rate_ensemble,
    "linear_svi": _linear_svi,
    "short_agents": _short_agents,
}


def config_document(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)


def document_bytes(document: dict) -> bytes:
    return json.dumps(document, sort_keys=True, indent=1).encode()


def document_hash(document: dict) -> str:
    return hashlib.sha256(document_bytes(document)).hexdigest()


def sample_count(agent: dict, k: int) -> int:
    """N_k = ceil(theta (k+mu)^(1+a) ln(k+mu)^(1+b)), at least 1.

    A value within 1e-9 (relative) of an integer is that integer, so a count
    that is integral in exact arithmetic is not raised by rounding error.
    """
    base = k + float(agent["mu"])
    v = float(agent["theta"]) * base ** (1.0 + float(agent.get("a", 0.0))) \
        * math.log(base) ** (1.0 + float(agent.get("b", 1.0)))
    nearest = round(v)
    if abs(v - nearest) <= 1e-9 * max(1.0, abs(nearest)):
        return max(int(nearest), 1)
    return max(math.ceil(v), 1)


def billed_per_step(document: dict, k: int) -> int:
    """Oracle calls billed by iteration k: two stages, each N_k draws when
    the blocks share one draw set, or sum_i N_{k,i} when each agent draws."""
    solver = document["solver"]
    schedule = solver["schedule"]
    agents = schedule if isinstance(schedule, list) else [schedule]
    m = len(document["problem"].get("blocks") or [0])
    if len(agents) == 1:
        agents = agents * m
    if solver.get("coordination", "centralized") == "centralized" or m == 1:
        agents = agents[:1]
    return 2 * sum(sample_count(a, k) for a in agents)


def expected_calls(document: dict, n_steps: int) -> int:
    """2 sum_{k < n_steps} N_k, the final cum_calls of a replication."""
    return sum(billed_per_step(document, k) for k in range(n_steps))


def check_replications(document: dict, result) -> list:
    """Indices of replications whose trace is wrong, with the reason."""
    bad = []
    for trace in result.traces:
        if not np.all(np.isfinite(trace.iterates)):
            bad.append((trace.replication, "non-finite iterate"))
        elif trace.r2 is not None and not np.all(np.isfinite(trace.r2)):
            bad.append((trace.replication, "non-finite residual"))
        elif int(trace.cum_calls[-1]) != expected_calls(document, trace.n_steps):
            bad.append((trace.replication,
                        f"cum_calls {int(trace.cum_calls[-1])} != 2 sum N_k "
                        f"{expected_calls(document, trace.n_steps)}"))
    if len(result.traces) != document["replications"]:
        bad.append((-1, f"{len(result.traces)} traces for "
                        f"{document['replications']} replications"))
    return bad


def check_pass(workload: str, result) -> list:
    """Pass-level checks beyond the per-replication ones."""
    problems = []
    if workload == "rate_ensemble":
        lo, hi = SLOPE_BAND
        if result.slope is None or not lo <= result.slope <= hi:
            problems.append(f"fitted slope {result.slope} outside [{lo}, {hi}]")
    return problems
