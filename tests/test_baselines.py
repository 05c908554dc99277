import math

import pytest

from stochvi.baselines import MirrorProxSchedule, variance_scaling_probe
from stochvi.core import derive_stream
from stochvi.errors import InvalidHorizon, InvalidParameters


class TestMirrorProxSchedule:
    @pytest.mark.parametrize("K", [2, 10, 100, 10_000])
    def test_weights_normalized(self, K):
        s = MirrorProxSchedule.build(K, sigma=1.0, L=1.0)
        assert abs(s.weights.sum() - 1.0) <= 1e-12

    def test_gamma_closed_form(self):
        # Gamma_k = (1 - gamma_k) Gamma_(k-1) telescopes to 2/(k (k+1))
        K = 50
        gamma = [2.0 / (1 + k) for k in range(1, K + 1)]
        Gamma = [1.0]
        for k in range(2, K + 1):
            Gamma.append((1.0 - gamma[k - 1]) * Gamma[-1])
        assert Gamma[-1] == pytest.approx(2.0 / (K * (K + 1)), rel=1e-12)

    def test_avg_coeff_two_routes_agree(self):
        s = MirrorProxSchedule.build(60, sigma=1.0, L=1.0)
        for k in range(1, 61):
            assert s.avg_coeffs[k - 1] == pytest.approx(
                s.avg_coeff_closed_form(k), abs=1e-12)

    def test_stepsize_formula(self):
        s = MirrorProxSchedule.build(10, sigma=2.0, L=3.0)
        denom = 3.0 * 3.0 * 10 + 2.0 * 10 * math.sqrt(9.0)
        assert s.alphas[4] == pytest.approx(5.0 / denom, rel=1e-15)

    def test_horizon_validation(self):
        with pytest.raises(InvalidHorizon):
            MirrorProxSchedule.build(1, sigma=1.0, L=1.0)


class TestMirrorProxRuns:
    def test_no_noise_returns_start(self):
        sched = MirrorProxSchedule.build(10, sigma=0.0, L=1.0)
        z, zbar = sched.sample(derive_stream(0), x1=3.14)
        assert z == 3.14 and zbar == 3.14

    def test_deterministic_in_replication(self):
        sched = MirrorProxSchedule.build(20, 1.0, 1.0)
        assert sched.sample(derive_stream(9, replication=5)) == \
            sched.sample(derive_stream(9, replication=5))

    def test_explicit_sum_identity(self):
        # z^K - x1 must equal minus the stepsize-weighted draw sum
        K, sigma = 15, 0.7
        sched = MirrorProxSchedule.build(K, sigma, 1.0)
        draws = sigma * derive_stream(3, replication=2).standard_normal(K)
        z, zbar = sched.sample(derive_stream(3, replication=2), x1=1.0)
        assert z == pytest.approx(1.0 - sched.alphas @ draws, abs=1e-15)
        assert zbar == pytest.approx(1.0 - sched.avg_coeffs @ draws, abs=1e-15)


class TestVarianceScaling:
    def test_zero_noise_all_zero(self):
        rows = variance_scaling_probe([10, 20], sigma=0.0, L=1.0, replications=100)
        for r in rows:
            assert r["var_zK_emp"] == 0.0 and r["var_zK_exact"] == 0.0
            assert r["var_zbar_emp"] == 0.0 and r["var_zbar_exact"] == 0.0

    def test_one_replication_rejected(self):
        # a sample variance of one draw is NaN, not a test of the law
        with pytest.raises(InvalidParameters, match="2 replications"):
            variance_scaling_probe([10], sigma=1.0, L=1.0, replications=1)

    def test_empirical_matches_exact_within_band(self):
        R = 4000
        rows = variance_scaling_probe([30, 60], sigma=1.5, L=1.0,
                                      replications=R, master_seed=12)
        for r in rows:
            for which in ("zK", "zbar"):
                exact = r[f"var_{which}_exact"]
                stderr = exact * math.sqrt(2.0 / (R - 1))
                assert abs(r[f"var_{which}_emp"] - exact) <= 4.0 * stderr

    def test_terminal_variance_does_not_vanish(self):
        # sum alpha_k^2 approaches 1/(3 sigma^2) from below: the terminal
        # iterate keeps fluctuating no matter the horizon
        for K in (100, 1000):
            s = MirrorProxSchedule.build(K, sigma=1.0, L=1.0)
            assert 0.15 <= s.terminal_var_coeff <= 1.0 / 3.0

    def test_average_variance_limits(self):
        # theta_k = alpha_k sum_(i>=k) p_i: the ratio of the two sums does not
        # depend on the stepsize denominator and tends to 24/105, so the
        # averaged-iterate variance tends to 8/(105 sigma^2), not to zero
        s = MirrorProxSchedule.build(10_000, sigma=2.0, L=1.0)
        assert s.average_var_coeff / s.terminal_var_coeff == pytest.approx(
            24.0 / 105.0, rel=1e-3)
        s = MirrorProxSchedule.build(1_000_000, sigma=2.0, L=1.0)
        assert 4.0 * s.average_var_coeff == pytest.approx(8.0 / 105.0, rel=1e-2)
