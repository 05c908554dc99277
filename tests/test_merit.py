from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import default_config
from reference_impls import quadratic_gap_bruteforce
from stochvi.core import validate
from stochvi.errors import InvalidParameters, NoKnownSolutions
from stochvi.merit import (
    anchor,
    d_gap,
    distance_sq_to_solutions,
    natural_residual_sq,
    regularized_gap,
)
from stochvi.harness import fit_loglog_slope
from stochvi.problems import (
    LinearMatrixNoiseOracle,
    MatrixProblem,
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
    Halfspace,
    NonnegativeOrthant,
    Simplex,
    WholeSpace,
)
from stochvi.solver import run

IDENT = lambda x: np.asarray(x, dtype=float)
R2 = WholeSpace(2)


class TestNaturalResidual:
    def test_zero_at_known_solution(self, quiet_problem):
        r2 = natural_residual_sq(quiet_problem.mean_operator,
                                 quiet_problem.feasible_set,
                                 anchor(quiet_problem), 0.1)
        assert r2 <= 1e-20

    def test_unconstrained_linear_closed_form(self):
        # T(x) = x on the whole plane: r = alpha ||x||
        val = natural_residual_sq(IDENT, R2, np.array([1.0, 0.0]), 0.2)
        assert val == pytest.approx(0.04, abs=1e-16)

    def test_orthant_hand_evaluation(self):
        val = natural_residual_sq(IDENT, NonnegativeOrthant(2),
                                  np.array([-1.0, 1.0]), 0.2)
        assert val == pytest.approx(1.04, abs=1e-14)

    def test_translation_sanity_exact(self, rng):
        # T(x) = x - c on the whole space: residual is alpha ||x - c|| exactly
        c = rng.standard_normal(4)
        T = lambda x: np.asarray(x, float) - c
        for _ in range(20):
            x = 3 * rng.standard_normal(4)
            alpha = rng.uniform(0.05, 0.4)
            want = alpha ** 2 * float((x - c) @ (x - c))
            got = natural_residual_sq(T, WholeSpace(4), x, alpha)
            assert got == pytest.approx(want, rel=1e-13)

    def test_alpha_must_be_positive(self):
        with pytest.raises(InvalidParameters):
            natural_residual_sq(IDENT, R2, np.zeros(2), 0.0)


class TestRegularizedGap:
    def test_zero_at_solution(self):
        p = gen_strongly_monotone(3, seed=5, noise_scale=0.0)
        assert regularized_gap(p.mean_operator, p.feasible_set,
                               anchor(p), 2.0) <= 1e-20

    def test_unconstrained_closed_form(self):
        # g_a(x) = ||T(x)||^2 / (2a) on the whole space
        assert regularized_gap(IDENT, R2, np.array([1.0, 0.0]), 2.0) \
            == pytest.approx(0.25, abs=1e-15)

    def test_decreasing_in_a(self):
        x = np.array([0.7, -1.3])
        g2 = regularized_gap(IDENT, R2, x, 2.0)
        g4 = regularized_gap(IDENT, R2, x, 4.0)
        assert 0 < g4 <= g2

    def test_against_grid_search_on_box(self, rng):
        box = Box(-np.ones(2), np.ones(2))
        for _ in range(10):
            x = rng.uniform(-1, 1, size=2)
            a = rng.uniform(0.5, 3.0)
            exact = regularized_gap(IDENT, box, x, a)
            grid = quadratic_gap_bruteforce(x.copy(), x, box.lower, box.upper, a,
                                            grid=801)
            assert exact == pytest.approx(grid, abs=2e-4)

    def test_reads_the_t_it_is_handed(self):
        """Handed T(x), the gap evaluates no T and equals, bit for bit, the
        gap that evaluates it."""
        p = gen_strongly_monotone(3, seed=5, noise_scale=0.0, center=np.zeros(3),
                                  feasible=Box(-np.ones(3), np.ones(3)))
        X = np.linspace(-2.0, 2.0, 12).reshape(4, 3)
        untouched = lambda x: pytest.fail("T evaluated although t was handed over")
        assert np.array_equal(
            regularized_gap(untouched, p.feasible_set, X, 1.5, t=p.mean_operator(X)),
            regularized_gap(p.mean_operator, p.feasible_set, X, 1.5))


class TestDGap:
    def test_parameter_order_enforced(self):
        with pytest.raises(InvalidParameters):
            d_gap(IDENT, R2, np.zeros(2), 2.0, 1.0)

    def test_zero_at_solution(self):
        p = gen_strongly_monotone(3, seed=5, noise_scale=0.0)
        assert abs(d_gap(p.mean_operator, p.feasible_set,
                         anchor(p), 1.0, 2.0)) <= 1e-12

    def test_unconstrained_closed_form(self):
        # ||x||^2/2 - ||x||^2/4 with a=1, b=2
        assert d_gap(IDENT, R2, np.array([1.0, 0.0]), 1.0, 2.0) \
            == pytest.approx(0.25, abs=1e-15)

    def test_nonnegative_and_positive_off_solutions(self, rng):
        p = gen_linear_svi(4, seed=9, noise_scale=0.0)
        for _ in range(100):
            x = np.abs(rng.standard_normal(4)) + 0.05
            val = d_gap(p.mean_operator, p.feasible_set, x, 1.0, 2.0)
            assert val >= -1e-10

    def test_zero_set_matches_residual(self, rng):
        """The d-gap and the squared residual vanish together."""
        p = gen_linear_svi(4, seed=9, noise_scale=0.0)
        pts = [anchor(p)] + \
            [np.abs(rng.standard_normal(4)) for _ in range(100)]
        for x in pts:
            gap = d_gap(p.mean_operator, p.feasible_set, x, 1.0, 2.0)
            res = natural_residual_sq(p.mean_operator, p.feasible_set, x, 0.25)
            assert (gap > 1e-12) == (res > 1e-12)

    @pytest.mark.parametrize("make", [
        lambda: gen_strongly_monotone(5, seed=3, center=np.zeros(5)),
        lambda: gen_strongly_monotone(5, seed=3, feasible=Box(-np.ones(5), np.ones(5)),
                                      center=np.array([1.0, 0.5, 0.0, -0.5, -1.0])),
        lambda: gen_scaled_monotone(5, seed=5, noise_scale=0.5),
    ], ids=["strongly_monotone", "strongly_monotone_box", "scaled_monotone"])
    def test_sandwich_on_every_iterate(self, make):
        """For b > a > 0, (b - a)/2 r^2_{1/b}(x) <= g_a(x) - g_b(x) <=
        (b - a)/2 r^2_{1/a}(x), with r^2_alpha the squared natural residual
        (Yamashita, Taji and Fukushima, JOTA 92, 1997): checked to a relative
        1e-9 of the upper bound on every iterate of a short ensemble."""
        a, b, R, K = 1.0, 2.0, 10, 100
        p = make()
        T, fset = p.mean_operator, p.feasible_set
        plan = validate(p, default_config(stepsize=0.25 / p.lipschitz_L, max_iterations=K,
                                          diagnostics=False))
        X = np.concatenate([run(plan, replication=r, x0=np.full(5, 2.0)).iterates
                            for r in range(R)])
        assert len(X) == R * (K + 1)
        gap = d_gap(T, fset, X, a, b)
        lower = 0.5 * (b - a) * natural_residual_sq(T, fset, X, 1.0 / b)
        upper = 0.5 * (b - a) * natural_residual_sq(T, fset, X, 1.0 / a)
        tol = 1e-9 * upper
        assert np.all(lower <= gap + tol) and np.all(gap <= upper + tol)
        assert np.all(upper > 0.0)


    def test_surrogate_evaluated_once_per_row(self):
        """On an oracle-only problem each T evaluation of a row is a fresh
        batch mean: 11 rows cost 11, and the value is g_a - g_b bit for bit."""
        from stochvi import harness

        base, calls = gen_strongly_monotone(3, seed=1, noise_scale=0.5), []

        def oracle(rng, x, size):
            calls.append(size)
            return base.oracle(rng, x, size)

        p = replace(base, oracle=oracle, mean_operator=None)
        T, estimated = harness.effective_mean_operator(p, n_samples=1000)
        assert estimated
        X = np.linspace(-1.0, 1.0, 33).reshape(11, 3)
        value = d_gap(T, p.feasible_set, X, 1.0, 2.0)
        assert calls == [1000] * 11
        assert np.array_equal(value, regularized_gap(T, p.feasible_set, X, 1.0)
                              - regularized_gap(T, p.feasible_set, X, 2.0))


class TestDistance:
    def test_member_and_hand_case(self):
        p = gen_strongly_monotone(2, seed=1, noise_scale=0.0,
                                  center=np.array([1.0, 1.0]))
        assert distance_sq_to_solutions(p, np.array([1.0, 1.0])) == 0.0
        assert distance_sq_to_solutions(p, np.zeros(2)) == pytest.approx(2.0)

    def test_solution_set_is_whole_space(self):
        p = gen_constant_noise(sigma=1.0)
        assert distance_sq_to_solutions(p, np.array([123.0])) == 0.0

    def test_no_solutions_error(self):
        p = gen_constant_noise(sigma=1.0)
        object.__setattr__(p, "solution_set", None)
        with pytest.raises(NoKnownSolutions):
            distance_sq_to_solutions(p, np.zeros(1))

    def test_singular_linear_svi_converges_to_its_solution_set(self):
        """Abar = M^T M with M a (5, 8) Gaussian matrix over sqrt(8) has
        X* = null(M), of dimension 3, and the rows settle at different
        points of it: the mean dist^2 to X* falls at the criterion-1 rate
        (slope -1.58), while the mean dist^2 to the one solution 0 stays
        near 25."""
        M = np.random.default_rng(1).standard_normal((5, 8)) / np.sqrt(8)
        abar = M.T @ M
        T = lambda x: np.matvec(abar, np.asarray(x, dtype=float))
        L = float(np.linalg.norm(abar, 2))
        p = MatrixProblem(dimension=8, oracle=LinearMatrixNoiseOracle(T, 0.3),
                          mean_operator=T, lipschitz_L=L, feasible_set=WholeSpace(8),
                          solution_set=AffineSubspace(M, np.zeros(5)), mean_matrix=abar)
        cfg = default_config(stepsize=0.9 / (np.sqrt(6) * L), max_iterations=300,
                             master_seed=77, diagnostics=False)

        def slope(solution_set):
            ensemble = run(validate(replace(p, solution_set=solution_set), cfg),
                           replication=range(20), x0=np.full(8, 2.0))
            return fit_loglog_slope(ensemble.dist2.mean(axis=0), (20, 300))[0]

        to_set, to_zero = slope(p.solution_set), slope(Box(np.zeros(8), np.zeros(8)))
        print(f"[singular SVI] dist^2 slope over k in [20, 300]: to X* {to_set:.3f}, "
              f"to the point 0 {to_zero:.3f}")
        assert to_set <= -0.85 < to_zero  # the criterion-1 edge


OPERATORS = {
    "strongly_monotone": lambda n: gen_strongly_monotone(n, seed=4, psd_scale=0.5,
                                                         skew_scale=0.3),
    "linear_svi": lambda n: gen_linear_svi(n, seed=4),
    "scaled_monotone": lambda n: gen_scaled_monotone(n, seed=4),
    "negative_control": lambda n: gen_negative_control(n),
    "constant_noise": lambda n: gen_constant_noise(n=n),
}

SETS = {
    "whole_space": lambda n, rng: WholeSpace(n),
    "orthant": lambda n, rng: NonnegativeOrthant(n),
    "box": lambda n, rng: Box(-np.ones(n), 2.0 * np.ones(n)),
    "ball": lambda n, rng: Ball(rng.standard_normal(n), 1.5),
    "simplex": lambda n, rng: Simplex(n, 2.0),
    "halfspace": lambda n, rng: Halfspace(rng.standard_normal(n) + 0.1, 0.5),
    "affine": lambda n, rng: AffineSubspace(rng.standard_normal(((n + 1) // 2, n)),
                                            rng.standard_normal((n + 1) // 2)),
    "cartesian": lambda n, rng: CartesianProduct(
        (Ball(np.zeros(1), 1.0), Box(-np.ones(n - 1), np.ones(n - 1))), (1, n - 1))
    if n > 1 else CartesianProduct((NonnegativeOrthant(1),), (1,)),
}


@settings(max_examples=120, deadline=None)
@given(op=st.sampled_from(sorted(OPERATORS)), kind=st.sampled_from(sorted(SETS)),
       n=st.integers(1, 7) | st.sampled_from([16, 64]), K=st.integers(0, 6),
       seed=st.integers(0, 2 ** 31 - 1))
def test_batched_calls_equal_row_calls(op, kind, n, K, seed):
    """Built-in mean operators and the four merits on a (K, n) batch return,
    row for row, the single-point values bit for bit, on every set type."""
    rng = np.random.default_rng(seed)
    T = OPERATORS[op](n).mean_operator
    fset = SETS[kind](n, rng)
    X = 3.0 * rng.standard_normal((K, n))
    c = rng.standard_normal(n)
    point = SimpleNamespace(solution_set=Box(c, c))
    whole_set = SimpleNamespace(solution_set=fset)
    merits = [
        T,
        lambda x: natural_residual_sq(T, fset, x, 0.3),
        lambda x: regularized_gap(T, fset, x, 1.5),
        lambda x: d_gap(T, fset, x, 1.0, 2.0),
        lambda x: distance_sq_to_solutions(point, x),
        lambda x: distance_sq_to_solutions(whole_set, x),
    ]
    for f in merits:
        batched = f(X)
        assert batched.shape[:1] == (K,)
        assert np.array_equal(batched, np.reshape([f(x) for x in X], batched.shape))
