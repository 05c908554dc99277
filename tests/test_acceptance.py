"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 5 checks the
ergodic mirror-prox variances against their exact closed forms, which stay
of order one (sum theta_k^2 -> 8/(105 sigma^2)); criterion 9 checks that the
remainder constant the constants report uses is one its own consistency
scan admits.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from reference_impls import korpelevich_reference
from stochvi import SampleSchedule, SolverConfig, validate
from stochvi.baselines import MirrorProxSchedule, variance_scaling_probe
from stochvi.constants import (
    ConstantsInputs,
    c_consistency,
    compare_bound_to_run,
    rate_and_complexity_bounds,
)
from stochvi.harness import ExperimentConfig, run_experiment
from stochvi.merit import natural_residual_sq
from stochvi.problems import (
    check_pseudo_monotone,
    gen_constant_noise,
    gen_linear_svi,
    gen_negative_control,
    gen_scaled_monotone,
    gen_strongly_monotone,
)
from stochvi.projection import (
    AffineSubspace,
    Ball,
    Box,
    CartesianProduct,
    NonnegativeOrthant,
    Simplex,
    WholeSpace,
    project,
)
from stochvi.sampling import error_decay_probe
from stochvi.solver import fejer_audit, martingale_probe, run

SCHEDULE = SampleSchedule.uniform(theta=1, mu=3, a=0, b=1)
SIGMA_NOISE = 1.0  # per-coordinate additive noise on the rate instance
N_DIM = 5


def report(num, name, ok, detail):
    print(f"[acceptance {num:>2}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def rate_problem():
    return gen_strongly_monotone(N_DIM, seed=3, noise_scale=SIGMA_NOISE,
                                 center=np.zeros(N_DIM))


def rate_config(**overrides):
    kwargs = dict(stepsize=0.25, schedule=SCHEDULE, max_iterations=300,
                  master_seed=2024)
    kwargs.update(overrides)
    return SolverConfig(**kwargs)


@pytest.fixture(scope="module")
def rate_run():
    """Criterion-1 ensemble, shared with the constants cross-check."""
    cfg = ExperimentConfig(
        problem=rate_problem(), solver=rate_config(),
        replications=100, x0=np.full(N_DIM, 1.0),
        rate_fit_window=(20, 300), epsilon=1e-4)
    return run_experiment(cfg)


def test_criterion_01_rate(rate_run):
    ok = rate_run.slope is not None and -1.8 <= rate_run.slope <= -0.85
    assert report(1, "O(1/K) rate slope", ok,
                  f"slope={rate_run.slope:.3f} over k in [20, 300], "
                  f"R=100, K_eps(1e-4)={rate_run.k_eps}")


def test_criterion_02_error_decay():
    problem = gen_constant_noise(sigma=1.0)
    rows = error_decay_probe(problem, np.zeros(1), [1, 4, 16, 64, 256],
                             replications=20_000, master_seed=6)
    products = {r["N"]: r["product"] for r in rows}
    ok = all(0.8 <= v <= 1.2 for v in products.values())
    assert report(2, "1/N error decay", ok,
                  "N*E||eps||^2 = " + ", ".join(
                      f"{n}:{v:.4f}" for n, v in products.items()))


def test_criterion_03_fejer_audit():
    cfg = rate_config(max_iterations=100, diagnostics=True)
    worst = 0.0
    violations = 0
    for problem in (rate_problem(), gen_scaled_monotone(N_DIM, seed=5, noise_scale=0.5)):
        solver = SolverConfig(stepsize=0.25 / problem.lipschitz_L, schedule=SCHEDULE,
                              max_iterations=100, master_seed=31, diagnostics=True)
        plan = validate(problem, solver)
        for rep in range(50):
            trace = run(plan, replication=rep, x0=np.full(N_DIM, 1.0))
            audit = fejer_audit(trace, problem.known_solutions[0])
            worst = max(worst, audit.max_rel_violation)
            violations += audit.n_violations

    control = gen_negative_control(n=1)
    ctl_cfg = SolverConfig(stepsize=0.2, schedule=SCHEDULE, max_iterations=30,
                           master_seed=1, diagnostics=True)
    ctl_trace = run(validate(control, ctl_cfg), x0=np.array([1.0]))
    ctl_audit = fejer_audit(ctl_trace, np.zeros(1))
    ctl_pm = check_pseudo_monotone(control.mean_operator, control.feasible_set,
                                   samples=500, seed=2, n=1)
    control_flags = (not ctl_audit.passed) or (not ctl_pm.passed)

    ok = violations == 0 and control_flags
    assert report(3, "pathwise quasi-Fejer audit", ok,
                  f"100 paths x 100 steps: {violations} violations beyond 1e-9 "
                  f"(max rel {worst:.2e}); negative control flagged={control_flags}")


def test_criterion_04_martingale_zero_mean():
    problem = gen_linear_svi(N_DIM, seed=8, noise_scale=0.5)
    cfg = SolverConfig(stepsize=0.2 / problem.lipschitz_L, schedule=SCHEDULE,
                       max_iterations=1, master_seed=17)
    x = np.full(N_DIM, 1.0)
    res = martingale_probe(validate(problem, cfg), x, replications=10_000)
    assert report(4, "martingale increments zero-mean", res.passed,
                  f"|mean dM|={abs(res.mean):.2e} vs 4*stderr={4 * res.stderr:.2e}, "
                  f"R=10000")


def test_criterion_05_ergodic_variance_laws():
    R = 5000
    rows = variance_scaling_probe([60, 120], sigma=1.0, L=1.0,
                                  replications=R, master_seed=5)
    terminal_ok = True
    for r in rows:
        stderr = r["var_zK_exact"] * math.sqrt(2.0 / (R - 1))
        terminal_ok &= abs(r["var_zK_emp"] - r["var_zK_exact"]) <= 4.0 * stderr

    weights_ok = all(
        abs(MirrorProxSchedule.build(K, 1.0, 1.0).weights.sum() - 1.0) <= 1e-12
        for K in (60, 120))

    # Averaging shrinks the variance by a constant factor only: with
    # alpha_k ~ k / (sigma K^1.5) and weights summing to one, sum(alpha^2)
    # -> 1/(3 sigma^2) and sum(theta^2) -> 8/(105 sigma^2).  Each horizon uses
    # its own seed, so the ratio of two sample variances has relative
    # standard error sqrt(4/(R-1)); a K^-3 law (ratio near 8) lies ~290 SE out.
    avg_ok = True
    for r in rows:
        stderr = r["var_zbar_exact"] * math.sqrt(2.0 / (R - 1))
        avg_ok &= abs(r["var_zbar_emp"] - r["var_zbar_exact"]) <= 4.0 * stderr
    ratio = rows[0]["var_zbar_emp"] / rows[1]["var_zbar_emp"]
    exact_ratio = rows[0]["var_zbar_exact"] / rows[1]["var_zbar_exact"]
    ratio_se = exact_ratio * math.sqrt(4.0 / (R - 1))
    ratio_ok = abs(ratio - exact_ratio) <= 4.0 * ratio_se

    ok = terminal_ok and weights_ok and avg_ok and ratio_ok
    assert report(5, "ergodic baseline variance laws", ok,
                  f"terminal var within band={terminal_ok}, sum(p)=1 holds={weights_ok}, "
                  f"average var within band={avg_ok}, avg-var ratio 60/120 = "
                  f"{ratio:.3f} (exact {exact_ratio:.3f} +- {4.0 * ratio_se:.3f})")


def test_criterion_06_complexity_accounting():
    problem = gen_strongly_monotone(N_DIM, seed=3, noise_scale=0.0,
                                    center=np.zeros(N_DIM))
    cfg = rate_config(max_iterations=1000, residual_floor=0.0)
    trace = run(validate(problem, cfg), x0=np.full(N_DIM, 1.0))
    theta, mu, b = 1.0, 3.0, 1.0

    def count(k):
        return math.ceil(theta * (k + mu) * math.log(k + mu) ** (1.0 + b))

    exact_ok = all(
        trace.cum_calls[K] == sum(2 * count(k) for k in range(K))
        for K in (10, 100, 1000))

    bound_ok = True
    for K in (10, 100, 1000):
        total = sum(2 * count(k) for k in range(1, K + 1))
        bound = 4.0 * max(theta, 1.0) * K * (K + 2 * mu) * (
            math.log(K + mu) ** (1.0 + b) + 1.0)
        bound_ok &= total <= bound

    ok = exact_ok and bound_ok
    assert report(6, "oracle-complexity accounting", ok,
                  f"exact schedule sums at K=10,100,1000: {exact_ok}; "
                  f"proof-shape bound holds: {bound_ok}")


def test_criterion_07_deterministic_limit():
    problem = gen_strongly_monotone(N_DIM, seed=3, noise_scale=0.0,
                                    center=np.zeros(N_DIM))
    cfg = rate_config(max_iterations=500, residual_floor=0.0)
    x0 = np.full(N_DIM, 2.0)
    trace = run(validate(problem, cfg), x0=x0)
    ref = korpelevich_reference(problem.mean_operator,
                                lambda v: project(problem.feasible_set, v),
                                x0, 0.25, 500)
    max_gap = float(np.max(np.linalg.norm(trace.iterates - ref, axis=1)))

    cfg2 = rate_config(max_iterations=2000)
    trace2 = run(validate(problem, cfg2), x0=x0)
    reached = trace2.r2[-1] < 1e-12

    ok = max_gap <= 1e-12 and reached
    assert report(7, "deterministic-limit equivalence", ok,
                  f"max per-iterate gap to reference {max_gap:.2e}; "
                  f"r^2 reached {trace2.r2[-1]:.2e} in {trace2.n_steps} steps")


def test_criterion_08_distributed_consistency():
    problem = rate_problem()
    blocked = replace(problem, blocks=(2, 2, 1))
    cfg = rate_config(max_iterations=120)
    mono = run(validate(problem, cfg), x0=np.full(N_DIM, 1.0))
    cent = run(validate(blocked, cfg), x0=np.full(N_DIM, 1.0))
    bitwise = (np.array_equal(mono.iterates, cent.iterates)
               and np.array_equal(mono.cum_calls, cent.cum_calls))

    dist_cfg = ExperimentConfig(
        problem=blocked,
        solver=rate_config(schedule=SCHEDULE.broadcast(3),
                           coordination="distributed"),
        replications=100, x0=np.full(N_DIM, 1.0),
        rate_fit_window=(20, 300))
    dist = run_experiment(dist_cfg)
    slope_ok = dist.slope is not None and -1.8 <= dist.slope <= -0.85

    sched = SCHEDULE.broadcast(3)
    some = dist.traces[0]
    expected = 2 * np.cumsum(sched.sizes_upto(some.n_steps - 1).sum(axis=1))
    accounting = np.array_equal(some.cum_calls[1:], expected)

    ok = bitwise and slope_ok and accounting
    assert report(8, "distributed consistency", ok,
                  f"centralized m=3 bitwise equal={bitwise}; distributed slope="
                  f"{dist.slope:.3f}; per-agent call accounting={accounting}")


def test_criterion_09_constants_self_consistency(rate_run):
    sigma_star = math.sqrt(N_DIM) * SIGMA_NOISE
    inputs = ConstantsInputs(L=1.0, alpha=0.25, sigma=sigma_star,
                             schedule=SCHEDULE, phi=0.5,
                             d0=float(np.sqrt(N_DIM)))
    bounds = rate_and_complexity_bounds(inputs, 1e-4,
                                        mean_dist2=rate_run.mean_dist2)
    direction = compare_bound_to_run(inputs, bounds.base.rate_Q,
                                     rate_run.mean_r2, k_min=20)
    consistency = c_consistency(inputs, k_max=1000)
    admissible = (consistency.threshold_k is not None
                  and consistency.minimal_c <= inputs.c_remainder)

    ok = direction.passed and admissible
    assert report(9, "constants self-consistency", ok,
                  f"mean r^2 <= Q_bar/k on k in [20,300]: {direction.passed} "
                  f"(Q_bar={bounds.base.rate_Q:.4g}, {direction}); "
                  f"minimal admissible c = {consistency.minimal_c:.2f} "
                  f"(required <= c_remainder = {inputs.c_remainder:.2f})")


def test_criterion_10_property_suites():
    rng = np.random.default_rng(515)
    t0 = __import__("time").time()
    A = np.random.default_rng(1).standard_normal((2, 5))
    sets = [
        (Box(-np.ones(4), np.ones(4)), 4),
        (NonnegativeOrthant(4), 4),
        (Ball(np.array([0.5, -0.5, 0.0]), 2.0), 3),
        (Simplex(5, scale=2.0), 5),
        (AffineSubspace(A, np.array([1.0, -0.3])), 5),
        (CartesianProduct((Box(np.zeros(2), np.ones(2)),
                           Ball(np.zeros(2), 1.0)), (2, 2)), 4),
    ]
    proj_ok, n_pairs = True, 0
    for fset, dim in sets:
        X = 4.0 * rng.standard_normal((10_000, dim))
        Y = 4.0 * rng.standard_normal((10_000, dim))
        PX, PY = fset.project(X), fset.project(Y)
        proj_ok &= bool(np.all(np.linalg.norm(PX - PY, axis=1)
                               <= np.linalg.norm(X - Y, axis=1) + 1e-12))
        proj_ok &= bool(np.max(np.linalg.norm(fset.project(PX) - PX, axis=1)) <= 1e-14)
        feas = fset.sample(np.random.default_rng(99), 100, n=dim, scale=2.0)
        x, px = X[:100], PX[:100]
        inner = np.einsum("ij,ikj->ik", x - px, feas[None, :, :] - px[:, None, :])
        proj_ok &= bool(np.max(inner) <= 1e-10)
        firm = (np.sum((px[:, None, :] - feas[None, :, :]) ** 2, axis=2)
                + np.sum((px - x) ** 2, axis=1)[:, None]
                - np.sum((x[:, None, :] - feas[None, :, :]) ** 2, axis=2))
        proj_ok &= bool(np.max(firm) <= 1e-10)
        n_pairs += len(X)

    # merit zero-set equivalence and exact translation identity
    from stochvi.merit import d_gap

    p = gen_linear_svi(4, seed=9, noise_scale=0.0)
    merit_ok, n_points = True, 0
    for x in [p.known_solutions[0]] + \
            [np.abs(rng.standard_normal(4)) for _ in range(100)]:
        gap = d_gap(p.mean_operator, p.feasible_set, x, 1.0, 2.0)
        res = natural_residual_sq(p.mean_operator, p.feasible_set, x, 0.25)
        merit_ok &= (gap > 1e-12) == (res > 1e-12) and gap >= -1e-10
        n_points += 1
    c = rng.standard_normal(4)
    for _ in range(100):
        x = 3 * rng.standard_normal(4)
        alpha = rng.uniform(0.05, 0.4)
        got = natural_residual_sq(lambda v: np.asarray(v, float) - c,
                                  WholeSpace(4), x, alpha)
        merit_ok &= abs(got - alpha ** 2 * float((x - c) @ (x - c))) \
            <= 1e-12 * max(1.0, got)
        n_points += 1

    in_budget = __import__("time").time() - t0 < 30.0
    ok = proj_ok and merit_ok and in_budget
    assert report(10, "projection/merit property suites", ok,
                  f"projection invariants={proj_ok} on {n_pairs} pairs of {len(sets)} sets, "
                  f"merit invariants={merit_ok} on {n_points} points, "
                  f"within 30s={in_budget}")
