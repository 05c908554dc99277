"""End-to-end equivalence of the two oracle routes, in distribution.

The exact route draws each stage average from its law in one call; the
per-draw route wraps the same oracle in a plain function, as acceptance
criterion 8 does, so every stage draws all of its samples and averages
them.  The routes share no streams, so they are compared in distribution:
R = 1000 replications each, and a two-sample Kolmogorov-Smirnov statistic on
the final squared natural residual r^2 and squared distance dist^2 rejects at
D > 1.949 sqrt((R1 + R2) / (R1 R2)), the asymptotic alpha = 1e-3 level.

The two routes run at different master seeds, since same-seed routes would
share their first normals and not be independent samples.  Both seeds were
fixed before the gate first ran and stay as written.
"""

from dataclasses import replace

import numpy as np
import pytest

from stochvi import SampleSchedule, SolverConfig, validate
from stochvi.problems import (
    AdditiveGaussianOracle,
    LinearMatrixNoiseOracle,
    gen_linear_svi,
    gen_strongly_monotone,
)
from stochvi.solver import run

R = 1000
EXACT_SEED, PER_DRAW_SEED = 130_001, 130_002
SCHEDULE = SampleSchedule.uniform(theta=1, mu=3, a=0, b=1)


def critical_d(r1, r2):
    return 1.949 * np.sqrt((r1 + r2) / (r1 * r2))


def ks_statistic(a, b):
    """sup |F_a - F_b| of the two empirical distribution functions."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / len(a)
    fb = np.searchsorted(b, pooled, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def configs():
    """(problem, config, x0) by name: strongly monotone n = 2 with K = 15;
    linear SVI n = 3, whose noise grows with ||x||; distributed m = 3."""
    mono = gen_strongly_monotone(2, seed=3, noise_scale=1.0, center=np.zeros(2))
    linear = gen_linear_svi(3, seed=4, noise_scale=0.3)
    agents = gen_strongly_monotone(3, seed=3, noise_scale=1.0,
                                   center=np.zeros(3)).with_blocks((1, 1, 1))
    cfg = lambda **kw: SolverConfig(stepsize=0.25, schedule=SCHEDULE, **kw)
    return {
        "strongly_monotone": (mono, cfg(max_iterations=15), np.ones(2)),
        "linear_svi": (linear, replace(cfg(max_iterations=6),
                                       stepsize=0.25 / linear.lipschitz_L), np.full(3, 2.0)),
        "distributed": (agents, cfg(max_iterations=6, coordination="distributed"),
                        np.ones(3)),
    }


def per_draw(problem):
    """The problem with its oracle behind a plain function: no ``block``, no
    ``exact_error``, so every stage draws its samples and averages them."""
    oracle = problem.oracle
    return replace(problem, oracle=lambda rng, x, size: oracle(rng, x, size))


def finals(problem, config, x0, seed):
    plan = validate(problem, replace(config, master_seed=seed))
    traces = run(plan, replication=range(R), x0=x0).traces
    return (np.array([t.r2[-1] for t in traces]), np.array([t.dist2[-1] for t in traces]))


@pytest.fixture(scope="module")
def per_draw_finals():
    return {name: finals(per_draw(p), cfg, x0, PER_DRAW_SEED)
            for name, (p, cfg, x0) in configs().items()}


def test_ks_statistic():
    a = np.arange(10.0)
    assert ks_statistic(a, a) == 0.0
    assert ks_statistic(a, a + 100.0) == 1.0
    assert ks_statistic(a, a + 2.5) == pytest.approx(0.3)
    assert critical_d(R, R) == pytest.approx(0.08716, abs=1e-5)


@pytest.mark.parametrize("name", ["strongly_monotone", "linear_svi", "distributed"])
def test_exact_route_matches_per_draw_route_in_distribution(name, per_draw_finals):
    problem, config, x0 = configs()[name]
    exact = finals(problem, config, x0, EXACT_SEED)
    crit = critical_d(R, R)
    for label, e, d in zip(("r2", "dist2"), exact, per_draw_finals[name]):
        D = ks_statistic(e, d)
        assert D <= crit, f"{name} final {label}: KS D = {D:.4f} > {crit:.4f}"


class WithoutRootN(AdditiveGaussianOracle):
    """A faulty additive law: the stage error keeps the noise of one draw."""

    def block(self, rng, x, size, sl, error=False):
        return super().block(rng, x, 1 if error else size, sl, error)


def test_gate_rejects_a_law_without_root_n(per_draw_finals):
    problem, config, x0 = configs()["strongly_monotone"]
    faulty = replace(problem, oracle=WithoutRootN(problem.mean_operator, 2, 1.0))
    exact = finals(faulty, config, x0, EXACT_SEED)
    D = [ks_statistic(e, d) for e, d in zip(exact, per_draw_finals["strongly_monotone"])]
    assert min(D) > critical_d(R, R), D


class WithoutNorm(LinearMatrixNoiseOracle):
    """A faulty linear law: the stage error's spread drops ||x||."""

    def block(self, rng, x, size, sl, error=False):
        if not error:
            return super().block(rng, x, size, sl)
        return self.scale / np.sqrt(size) * rng.standard_normal(len(range(len(x))[sl]))


def test_gate_rejects_a_linear_law_without_the_norm(per_draw_finals):
    problem, config, x0 = configs()["linear_svi"]
    faulty = replace(problem, oracle=WithoutNorm(problem.mean_operator, problem.oracle.scale))
    exact = finals(faulty, config, x0, EXACT_SEED)
    D = [ks_statistic(e, d) for e, d in zip(exact, per_draw_finals["linear_svi"])]
    assert min(D) > critical_d(R, R), D
