import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import default_config
from stochvi.core import derive_stream, validate
from stochvi.merit import anchor
from stochvi.problems import (
    check_pseudo_monotone,
    gen_constant_noise,
    gen_linear_svi,
    gen_negative_control,
    gen_scaled_monotone,
    gen_strongly_monotone,
    variance_at,
)
from stochvi.sampling import error_decay_probe

ALL_GENERATORS = [
    lambda: gen_linear_svi(4, seed=11, noise_scale=0.3),
    lambda: gen_strongly_monotone(4, seed=11, noise_scale=0.7, psd_scale=0.5,
                                  skew_scale=0.3),
    lambda: gen_scaled_monotone(4, seed=11, noise_scale=0.5),
    lambda: gen_constant_noise(sigma=1.3),
]


@pytest.mark.parametrize("maker", ALL_GENERATORS)
def test_generated_problems_validate_and_match_oracle_mean(maker):
    """Every built-in problem passes validation and its oracle average agrees
    with the closed-form mean componentwise within Monte Carlo error."""
    p = maker()
    validate(p, default_config(stepsize=0.2 / p.lipschitz_L))
    rng = np.random.default_rng(77)
    for j in range(3):
        x = p.feasible_set.project(2.0 * rng.standard_normal(p.dimension))
        error = p.route()([derive_stream(13, sample=j)], x[None], 100_000)[0] - p.mean_operator(x)
        batch = p.oracle(derive_stream(13, sample=j), x, 100_000)
        stderr = batch.std(axis=0, ddof=1) / math.sqrt(100_000)
        assert np.all(np.abs(error) <= 4.0 * stderr + 1e-12)


BUILTIN_ORACLES = {
    "additive": lambda: gen_strongly_monotone(4, seed=11, noise_scale=0.7,
                                              psd_scale=0.5, skew_scale=0.3),
    "linear_matrix": lambda: gen_linear_svi(4, seed=11, noise_scale=0.3),
    "constant": lambda: gen_constant_noise(sigma=1.3, n=4),
}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(BUILTIN_ORACLES)), size=st.integers(1, 40),
       seed=st.integers(0, 2 ** 31 - 1))
def test_call_is_the_full_block(name, size, seed):
    """Per-draw path: ``oracle(...)`` is ``oracle.block(..., slice(None))``
    bit for bit, stream position included."""
    oracle = BUILTIN_ORACLES[name]().oracle
    x = np.random.default_rng(seed).standard_normal(4)
    rng1, rng2 = (derive_stream(seed) for _ in range(2))
    assert np.array_equal(oracle(rng1, x, size), oracle.block(rng2, x, size, slice(None)))
    assert np.array_equal(rng1.standard_normal(3), rng2.standard_normal(3))


SPREADS = {  # the exact law's spread of a stage error, as each oracle forms it
    "additive": lambda o, x, size: o.scale / math.sqrt(size),
    "linear_matrix": lambda o, x, size: o.scale * math.sqrt(float(np.vecdot(x, x)) / size),
    "constant": lambda o, x, size: o.sigma / math.sqrt(size),
}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(BUILTIN_ORACLES)), size=st.integers(1, 10 ** 6),
       seed=st.integers(0, 2 ** 31 - 1), sl=st.sampled_from([slice(None), slice(1, 3)]))
def test_stage_error_is_the_spread_times_the_stream_normals(name, size, seed, sl):
    """``block(..., error=True)`` is the spread times the next normals of the
    stage's stream, bit for bit: one normal per coordinate of the block."""
    oracle = BUILTIN_ORACLES[name]().oracle
    x = np.random.default_rng(seed).standard_normal(4)
    rng1, rng2 = (derive_stream(seed) for _ in range(2))
    want = SPREADS[name](oracle, x, size) * rng2.standard_normal(len(range(4)[sl]))
    assert oracle.block(rng1, x, size, sl, error=True).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(BUILTIN_ORACLES))
@pytest.mark.parametrize("sl", [slice(None), slice(1, 3)], ids=["full", "block"])
@pytest.mark.parametrize("size", [1, 7, 200])
def test_exact_mean_matches_draws_in_distribution(name, sl, size):
    """Two-sample check at a point with ||x|| != 1: stage averages T(x) plus
    an error drawn from the exact law and averages of ``size`` drawn rows
    agree in mean and in per-coordinate variance within 4 standard errors."""
    p = BUILTIN_ORACLES[name]()
    assert p.oracle.exact_error
    x = np.array([1.5, -0.5, 2.0, 0.25])
    t = p.mean_operator(x)
    route = p.route(sl)  # the exact law when handed t, else the drawn rows' average
    R = 2000
    exact, draws = [], []
    for r in range(R):
        exact.append(route([derive_stream(1, replication=r)], x[None], size, t[None])[0])
        draws.append(route([derive_stream(2, replication=r)], x[None], size)[0])
    exact = np.array(exact)
    draws = np.array(draws)
    assert exact.shape == draws.shape == (R, len(range(4)[sl]))
    v_exact, v_draws = exact.var(axis=0, ddof=1), draws.var(axis=0, ddof=1)
    mean_se = np.sqrt((v_exact + v_draws) / R)
    assert np.all(np.abs(exact.mean(axis=0) - draws.mean(axis=0)) <= 4.0 * mean_se)
    var_se = np.sqrt(2.0 / (R - 1) * (v_exact ** 2 + v_draws ** 2))
    assert np.all(np.abs(v_exact - v_draws) <= 4.0 * var_se)


def test_strongly_monotone_keeps_its_own_center():
    """The caller's ``center`` array is copied: writing into it afterwards
    moves neither T nor the recorded solution."""
    c = np.zeros(3)
    p = gen_strongly_monotone(3, center=c)
    c[:] = 1.0
    assert np.array_equal(anchor(p), np.zeros(3))
    assert np.array_equal(p.mean_operator(anchor(p)), np.zeros(3))
    assert np.array_equal(p.oracle.mean_operator(np.zeros(3)), np.zeros(3))


class TestLinearSVI:
    def test_mean_matrix_psd(self):
        p = gen_linear_svi(6, seed=2, noise_scale=0.1)
        eigs = np.linalg.eigvalsh(0.5 * (p.mean_matrix + p.mean_matrix.T))
        assert eigs.min() >= -1e-10

    def test_zero_noise_means_zero_covariance(self):
        p = gen_linear_svi(3, seed=2, noise_scale=0.0)
        assert variance_at(p, np.array([5.0, -1.0, 2.0])) == 0.0

    def test_variance_quadratic_in_x_scalar_case(self):
        # n = 1 with entry noise variance v: Var F = v x^2
        p = gen_linear_svi(1, seed=0, noise_scale=0.5)
        assert variance_at(p, np.array([2.0])) == pytest.approx(0.25 * 4.0)

    def test_variance_identity_examples(self):
        p = gen_linear_svi(2, seed=1, noise_scale=1.0 / math.sqrt(2.0))
        # covariance is (n * scale^2) I = I here
        assert variance_at(p, np.array([1.0, 1.0])) == pytest.approx(2.0)

    def test_empirical_variance_matches_quadratic_form(self, rng):
        p = gen_linear_svi(4, seed=5, noise_scale=0.4)
        x = rng.standard_normal(4)
        stream = __import__("stochvi.core", fromlist=["derive_stream"]) \
            .derive_stream(99)
        draws = p.oracle(stream, x, 10_000)
        err = draws - p.mean_operator(x)
        sq = np.sum(err ** 2, axis=1)
        stderr = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - variance_at(p, x)) <= 4.0 * stderr

    def test_variance_grows_along_rays(self):
        """Batch-mean error energy scales like ||x||^2: the quadratic
        variance law on the unbounded set."""
        p = gen_linear_svi(3, seed=8, noise_scale=1.0 / math.sqrt(3.0))  # B = I
        direction = np.array([1.0, 0.0, 0.0])
        rows_near = error_decay_probe(p, direction, [8], 20_000, master_seed=1)
        rows_far = error_decay_probe(p, 10.0 * direction, [8], 20_000, master_seed=2)
        ratio = rows_far[0]["product"] / rows_near[0]["product"]
        assert 75.0 <= ratio <= 125.0


class TestPseudoMonotonicity:
    def test_monotone_linear_passes(self):
        p = gen_linear_svi(4, seed=3, noise_scale=0.0)
        report = check_pseudo_monotone(p.mean_operator, p.feasible_set,
                                       samples=2000, seed=1, n=4)
        assert report.passed and report.n_applicable > 100

    def test_scaled_monotone_passes(self):
        p = gen_scaled_monotone(4, seed=3, noise_scale=0.0)
        report = check_pseudo_monotone(p.mean_operator, p.feasible_set,
                                       samples=2000, seed=1, n=4)
        assert report.passed

    def test_scaled_monotone_is_not_monotone(self):
        # <T(z)-T(x), z-x> < 0 for a crafted pair: the scaling breaks
        # monotonicity even though pseudo-monotonicity survives
        p = gen_scaled_monotone(1, seed=0, noise_scale=0.0)
        T = p.mean_operator
        x, z = np.array([1.0]), np.array([4.0])
        assert (T(z) - T(x)) @ (z - x) < 0

    def test_negative_control_reports_witness(self):
        p = gen_negative_control(n=1)
        report = check_pseudo_monotone(p.mean_operator, p.feasible_set,
                                       samples=500, seed=2, n=1)
        assert not report.passed
        x, z, lhs = report.violations[0]
        assert lhs < -1e-10
        assert "FAIL" in str(report)
