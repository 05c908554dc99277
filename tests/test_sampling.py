import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import never_drawn
from reference_impls import sample_count, tail_scan
from stochvi.core import derive_stream
from stochvi.errors import (
    DimensionMismatch,
    InvalidParameters,
    InvalidSchedule,
    NoMeanOperator,
    OracleFailure,
)
from stochvi.problems import gen_constant_noise, gen_linear_svi, gen_strongly_monotone
from stochvi.sampling import (
    AgentSchedule,
    SampleSchedule,
    error_decay_probe,
    network_exponents,
    schedule_tail_check,
    verify_network_exponents,
)


class TestSampleSize:
    def test_minimum_requirement_schedule(self):
        sched = SampleSchedule.uniform(theta=1, mu=3, a=0, b=1)
        assert sched.sizes_upto(0)[0, 0] == 4  # ceil(3 ln(3)^2) = ceil(3.6207)

    def test_pure_polynomial_schedule(self):
        sched = SampleSchedule.uniform(theta=2, mu=3, a=1, b=-1)
        assert sched.sizes_upto(7)[7, 0] == 200  # ceil(2 * 10^2 * ln(10)^0)

    def test_counts_past_int64_raise(self):
        sched = SampleSchedule.uniform(2.761, 2.555, 1.933, 1.84)
        assert sched.sizes_upto(1000)[-1, 0] > 1
        with pytest.raises(InvalidSchedule, match=r"agent 0: .* at k = \d+ exceeds"):
            sched.sizes_upto(200_000)
        assert sched.counts([200_000])[0, 0] > 2.0 ** 63  # a float count does not wrap

    def test_invalid_parameters(self):
        with pytest.raises(InvalidSchedule):
            AgentSchedule(theta=2, mu=3, a=0, b=0)
        with pytest.raises(InvalidSchedule):
            AgentSchedule(theta=0, mu=3, a=0, b=1)
        with pytest.raises(InvalidSchedule):
            AgentSchedule(theta=1, mu=2, a=0, b=1)
        with pytest.raises(InvalidSchedule):
            AgentSchedule(theta=1, mu=3, a=1, b=-1.5)

    @pytest.mark.parametrize("theta,mu,a,b", [
        (1, 3, 0, 1), (0.5, 2.5, 0, 0.2), (2, 3, 1, -1), (1.7, 4, 0.5, 2),
    ])
    def test_nondecreasing_in_k(self, theta, mu, a, b):
        sched = SampleSchedule.uniform(theta, mu, a, b)
        sizes = sched.sizes_upto(10_000)[:, 0]
        assert np.all(np.diff(sizes) >= 0)
        assert sizes[0] >= 1


# three agents with three different polynomial exponents a
MIXED = SampleSchedule((AgentSchedule(1, 3, 0, 1), AgentSchedule(2, 4, 0.5, 0),
                        AgentSchedule(0.5, 3, 1, -1)))


class TestHarmonicAggregate:
    """``SampleSchedule.inverse_series``: (1/N_k, 1/min_i N_{k,i}) with
    1/N_k = sum_i 1/N_{k,i}, checked against the counts summed by hand."""

    def test_equal_pair(self):
        agg, per_min = SampleSchedule.uniform(1, 3, 0, 1, m=2).inverse_series([0])
        assert agg[0] == 0.5 and per_min[0] == 0.25  # N_{0,i} = 4

    def test_unequal_pair(self):
        sched = SampleSchedule((AgentSchedule(1, 3, 0, 1), AgentSchedule(2, 3, 1, -1)))
        agg, per_min = sched.inverse_series([7])
        assert sched.counts([7]).tolist() == [[54, 200]]
        assert agg[0] == pytest.approx(1 / 54 + 1 / 200)
        assert per_min[0] == 1 / 54

    def test_mixed_three_agents(self):
        k = [0, 1, 10, 1000, 10 ** 5]
        agg, per_min = MIXED.inverse_series(k)
        for j, kk in enumerate(k):
            sizes = MIXED.counts([kk])[0]
            assert agg[j] == pytest.approx(1 / sizes[0] + 1 / sizes[1] + 1 / sizes[2],
                                           rel=1e-15)
            assert per_min[j] == 1 / min(sizes)

    def test_single_agent(self):
        sched = SampleSchedule.uniform(1, 3, 0, 1)
        agg, per_min = sched.inverse_series(np.arange(50))
        assert np.array_equal(agg, 1.0 / sched.sizes_upto(49)[:, 0])
        assert np.array_equal(per_min, agg)

    def test_empty(self):
        with pytest.raises(InvalidSchedule):
            SampleSchedule(())


def test_tail_summability_finite_horizon():
    """Partial sums of 1/N_k settle at the 10^6 horizon: the last ten terms
    contribute below 1e-6 of the total for every valid schedule."""
    for params in [(1, 3, 0, 1), (1, 3, 0, 0.5), (2, 3, 1, -1), (0.5, 4, 0.3, 0.2)]:
        schedule_tail_check(SampleSchedule.uniform(*params))


def test_tail_check_catches_stalled_counts():
    # theta so small the counts stay pinned at 1 across the whole horizon
    sched = SampleSchedule.uniform(theta=1e-30, mu=3, a=0, b=1)
    with pytest.raises(InvalidSchedule, match="tail not summable at finite horizon"):
        schedule_tail_check(sched, horizon=10_000)


# (theta, mu, a, b) of every schedule the tests, demos and benchmark run,
# plus stalled counts (theta = 1e-30) and two schedules whose counts pass
# the int64 range before the 10^6 horizon
SCHEDULES = [
    (1, 3, 0, 1), (1, 3, 0, 0.5), (2, 3, 1, -1), (0.5, 4, 0.3, 0.2),
    (0.5, 2.5, 0, 0.2), (1.7, 4, 0.5, 2), (4 / 9, 3, 1, -1), (8 / 9, 3, 1, -1),
    (2, 3, 0, 1), (2, 4, 0.5, 0), (0.5, 3, 1, -1), (1.3, 3.5, 0.7, 0.9),
    (1, 3, 1, 1), (0.817, 5.486, 0.401, 0.947),
    (1e-30, 3, 0, 1), (1, 3, 2, 1), (2.761, 2.555, 1.933, 1.84),
]


def passes_tail_check(schedule):
    try:
        schedule_tail_check(schedule)
    except InvalidSchedule:
        return False
    return True


@pytest.mark.parametrize("m", [1, 3])
def test_tail_check_decides_like_the_numeric_scan(m):
    decisions = []
    for params in SCHEDULES:
        ok = passes_tail_check(SampleSchedule.uniform(*params, m=m))
        assert ok == tail_scan([params] * m), params
        decisions.append(ok)
    assert decisions.count(False) == 1  # only the stalled schedule fails


def test_tail_bounds_bound_the_tails():
    """sum_(k < j <= H) 1/N_j and 1/N_j^2 stay under ``tail_bound(k)`` and
    ``tail_bound_sq(k)`` for every schedule above at m = 1 and 3, and for
    the mixed-exponent network.  Float counts: some schedules pass int64."""
    horizon = 10 ** 5
    schedules = [SampleSchedule.uniform(*p, m=m) for p in SCHEDULES for m in (1, 3)]
    for sched in schedules + [MIXED]:
        inv = np.sum(1.0 / sched.counts(np.arange(horizon + 1)), axis=1)
        for k in (1, 10, 1000):
            tail = inv[k + 1:]
            assert np.sum(tail) <= sched.tail_bound(k), (sched, k)
            assert np.sum(tail ** 2) <= sched.tail_bound_sq(k), (sched, k)


@pytest.mark.parametrize("theta, a, b", [(1.0, 0.0, 200.0), (1.0, 0.5, 200.0),
                                         (1.0, 0.0, 300.0), (1e-300, 0.0, 300.0)])
def test_tail_bounds_past_the_float_range(theta, a, b):
    """Where a power in a tail bound overflows, the bound is its value in log
    space: the exact value where that is a float (theta = 1e-300 keeps the
    bound at 1e-45), 0.0 where it underflows.  The exact values are taken in
    50-digit decimals."""
    ag, k = AgentSchedule(theta, 3.0, a, b), 10 ** 6
    with localcontext(prec=50):
        th, t, a_, b_ = Decimal(theta), Decimal(k + 3), Decimal(a), Decimal(b)
        lt, p = t.ln(), 1 + 2 * a_
        exact = (1 / (th * a_ * t ** a_) if a else 1 / (th * b_ * lt ** b_),
                 1 / (th ** 2 * p * t ** p * lt ** (2 + 2 * b_)))
    for bound, value in zip((ag.tail_bound(k), ag.tail_bound_sq(k)), exact):
        assert math.isclose(bound, float(value), rel_tol=1e-11), (bound, value)


class TestNetworkExponents:
    def test_single_agent(self):
        assert network_exponents(1, 0.5) == [0.5]

    def test_two_agents_unit_scaling(self):
        b = network_exponents(2, 0.5, S=1.0)
        assert b[1] == 0.5
        assert b[0] == pytest.approx(0.5 + 2 * math.log(3.0))
        assert verify_network_exponents(b, 1.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("S", [1.0, 2.0, 4.0, 9.0, 20.0])
    def test_defining_inequality_post_hoc(self, m, S):
        b = network_exponents(m, base=0.5, S=S)
        assert verify_network_exponents(b, S)
        assert all(b[i] >= b[i + 1] for i in range(m - 1))
        # defining property, re-stated directly (i >= 2; the i = 1 instance
        # is self-referential and only binds once ln S >= 2 ln 2)
        for i in range(1, m):
            assert b[0] >= b[i] + 2 * math.log(i + 2) - math.log(S) - 1e-12


class TestBatchMean:
    """``problem.route(sl)`` called without T(x) averages every draw."""

    def test_zero_variance_oracle_exact(self):
        p = gen_strongly_monotone(4, seed=1, noise_scale=0.0)
        x = np.array([1.0, -2.0, 0.5, 3.0])
        mean = p.route()([derive_stream(0)], x[None], 37)[0]
        # averaging N identical rows rounds at the ulp level, nothing more
        np.testing.assert_allclose(mean, p.mean_operator(x), rtol=1e-14)
        assert np.linalg.norm(mean - p.mean_operator(x)) <= 1e-13

    def test_clt_bound_constant_noise(self):
        p = gen_constant_noise(sigma=1.0)
        mean = p.route()([derive_stream(5)], np.zeros((1, 1)), 10_000)[0]
        assert abs(mean[0]) <= 4.0 / math.sqrt(10_000)

    def test_single_draw(self):
        p = gen_constant_noise(sigma=2.0)
        mean = p.route()([derive_stream(9)], np.zeros((1, 1)), 1)[0]
        draw = p.oracle(derive_stream(9), np.zeros(1), 1)
        assert mean.shape == (1,) and mean[0] == draw[0, 0]

    @pytest.mark.parametrize("maker", [
        lambda: gen_strongly_monotone(3, seed=4, noise_scale=0.8),
        lambda: gen_linear_svi(3, seed=4, noise_scale=0.5),
        lambda: gen_constant_noise(sigma=1.5, n=3),
    ])
    def test_builtin_oracle_draws_every_sample(self, maker):
        """Without T(x) the route stays on the per-draw path even for
        oracles that can draw the average from its exact law (criterion 2
        relies on it)."""
        p = maker()
        x = np.array([0.5, -1.0, 2.0])
        mean = p.route()([derive_stream(3, replication=2)], x[None], 64)[0]
        expected = p.oracle(derive_stream(3, replication=2), x, 64).mean(axis=0)
        assert np.array_equal(mean, expected)

    @pytest.mark.parametrize("size", [0, -1])
    def test_empty_batch_rejected(self, size):
        p = gen_constant_noise(sigma=1.0)
        for t in (None, np.zeros((1, 1))):
            with pytest.raises(InvalidSchedule, match="batch size"):
                p.route()([derive_stream(0)], np.zeros((1, 1)), size, t)


class TestErrorDecayProbe:
    def test_zero_variance_all_zero(self):
        p = gen_strongly_monotone(3, seed=2, noise_scale=0.0)
        rows = error_decay_probe(p, np.ones(3), [1, 4, 16], replications=10)
        assert all(r["product"] <= 1e-25 for r in rows)

    def test_exact_inverse_n_law_scalar_noise(self):
        # E||eps_N||^2 = sigma^2 / N exactly, so N * estimate stays near 1
        p = gen_constant_noise(sigma=1.0)
        rows = error_decay_probe(p, np.zeros(1), [1, 4, 16, 64], replications=3000)
        for r in rows:
            band = 4.0 * r["N"] * r["stderr"]
            assert abs(r["product"] - 1.0) <= band

    def test_linear_problem_product_matches_variance(self):
        p = gen_linear_svi(4, seed=6, noise_scale=0.5)
        x = np.array([1.0, 0.5, -0.25, 2.0])
        from stochvi.problems import variance_at

        target = variance_at(p, x)
        rows = error_decay_probe(p, x, [2, 8, 32], replications=3000, master_seed=4)
        for r in rows:
            assert r["product"] == pytest.approx(target, rel=0.15)

    def test_route_resolved_once_per_probe_and_surrogate(self, monkeypatch):
        from stochvi.core import ProblemInstance
        from stochvi.harness import effective_mean_operator

        p = gen_linear_svi(3, seed=6, noise_scale=0.5)
        resolved, route = [], ProblemInstance.route
        monkeypatch.setattr(ProblemInstance, "route",
                            lambda self, *a, **k: resolved.append(a) or route(self, *a, **k))
        error_decay_probe(p, np.ones(3), [1, 4], replications=5)
        T, _ = effective_mean_operator(replace(p, mean_operator=None), n_samples=8)
        T(np.ones((4, 3)))
        T(np.zeros(3))
        assert resolved == [(), ()]

    def test_exact_law_oracle_draws_every_sample(self, monkeypatch):
        """On an oracle declaring ``exact_error`` the probe takes no shortcut:
        N draws a batch and no ``error=True`` call, and each row is built
        from the route's average without T(x), bit for bit."""
        from stochvi.core import streams
        from stochvi.problems import AdditiveGaussianOracle

        p = gen_strongly_monotone(3, seed=2, noise_scale=0.7)
        assert p.oracle.exact_error
        calls, block = [], AdditiveGaussianOracle.block

        def counted(self, rng, x, size, sl, error=False):
            calls.append((size, error))
            return block(self, rng, x, size, sl, error)

        monkeypatch.setattr(AdditiveGaussianOracle, "block", counted)
        x, grid, R = np.array([0.5, -1.0, 2.0]), [1, 4, 16], 4
        rows = error_decay_probe(p, x, grid, replications=R, master_seed=5)
        assert calls == [(n, False) for n in grid for _ in range(R)]
        keyed, t = streams(5), p.mean_operator(x)
        for j, (n, row) in enumerate(zip(grid, rows)):
            errs = [p.route()(keyed([r], j, 1, 0), x[None], n)[0] - t for r in range(R)]
            assert row["mean_sq_error"] == float(np.mean([float(e @ e) for e in errs]))

    def test_nonfinite_batch_raises(self):
        from stochvi.harness import effective_mean_operator

        p = replace(gen_constant_noise(sigma=1.0),
                    oracle=lambda rng, x, size: np.full((size, 1), np.nan))
        with pytest.raises(OracleFailure, match="not finite"):
            error_decay_probe(p, np.zeros(1), [2], replications=2)
        T, _ = effective_mean_operator(replace(p, mean_operator=None), n_samples=4)
        with pytest.raises(OracleFailure, match="not finite"):
            T(np.zeros((2, 1)))

    def test_requires_mean_operator(self):
        p = gen_constant_noise(sigma=1.0)
        object.__setattr__(p, "mean_operator", None)
        with pytest.raises(NoMeanOperator):
            error_decay_probe(p, np.zeros(1), [1], replications=2)

    def test_one_replication_rejected(self):
        # one replication has no standard error, so the 4-SE band is empty
        with pytest.raises(InvalidParameters, match="2 replications"):
            error_decay_probe(gen_constant_noise(sigma=1.0), np.zeros(1), [1, 4],
                              replications=1)

    @pytest.mark.parametrize("x", [[1.0, 2.0, 3.0], 1.0, [[1.0, 2.0]]])
    def test_point_must_have_the_problem_dimension(self, x):
        # a scalar would broadcast against T(x) and run silently as [1, 1]
        p = gen_linear_svi(n=2, seed=1, noise_scale=0.3)
        with pytest.raises(DimensionMismatch, match=r"x must have shape \(2,\)"):
            error_decay_probe(p, x, [1, 4], replications=2)

    def test_nonfinite_point_rejected_before_any_draw(self):
        p = replace(gen_linear_svi(n=2, seed=1, noise_scale=0.3), oracle=never_drawn)
        with pytest.raises(InvalidParameters, match="x must be finite"):
            error_decay_probe(p, [np.nan, 1.0], [1, 4], replications=2)


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(0.1, 10), mu=st.floats(2.01, 20), b=st.floats(0.01, 3))
def test_schedule_counts_positive_and_monotone(theta, mu, b):
    sched = SampleSchedule.uniform(theta, mu, 0.0, b)
    sizes = sched.sizes_upto(300)[:, 0]
    assert sizes[0] >= 1
    assert np.all(np.diff(sizes) >= 0)


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(0.1, 10), mu=st.floats(2.01, 20), a=st.floats(0, 2),
       b=st.floats(-1, 3), k=st.integers(0, 400), agent=st.integers(0, 2))
def test_size_matches_table_and_reference(theta, mu, a, b, k, agent):
    if a == 0 and b <= 0:
        b = 1.0
    params = [(1, 3, 0, 1), (theta, mu, a, b), (2, 3, 1, -1)]
    sched = SampleSchedule(tuple(AgentSchedule(*p) for p in params))
    table = sched.sizes_upto(k)
    reference = [sample_count(*params[agent], j) for j in range(k + 1)]
    assert sched.counts([k])[0, agent] == table[k, agent]
    assert table[:, agent].tolist() == reference
