import numpy as np
import pytest

from conftest import default_config
from stochvi.core import (
    ProblemInstance,
    RngStreamKey,
    derive_stream,
    validate,
)
from stochvi.errors import (
    BlockMismatch,
    CoordinationMismatch,
    DimensionMismatch,
    InvalidSchedule,
    InvalidStepsize,
)
from stochvi.problems import check_pseudo_monotone, gen_strongly_monotone
from stochvi.projection import Box, CartesianProduct, WholeSpace
from stochvi.sampling import AgentSchedule, SampleSchedule


class TestStreams:
    def test_same_key_reproduces_draws(self):
        key = RngStreamKey(42, replication=3, iteration=17, stage=2, block=1)
        a = derive_stream(key).standard_normal(100)
        b = derive_stream(key).standard_normal(100)
        assert np.array_equal(a, b)

    def test_stage_changes_stream(self):
        k1 = RngStreamKey(42, replication=3, iteration=17, stage=1)
        k2 = RngStreamKey(42, replication=3, iteration=17, stage=2)
        assert derive_stream(k1).standard_normal() != derive_stream(k2).standard_normal()

    def test_each_field_changes_stream(self):
        base = RngStreamKey(42, 1, 2, 1, 3, 4)
        first = derive_stream(base).standard_normal()
        variants = [
            RngStreamKey(43, 1, 2, 1, 3, 4),
            RngStreamKey(42, 2, 2, 1, 3, 4),
            RngStreamKey(42, 1, 3, 1, 3, 4),
            RngStreamKey(42, 1, 2, 2, 3, 4),
            RngStreamKey(42, 1, 2, 1, 4, 4),
            RngStreamKey(42, 1, 2, 1, 3, 5),
        ]
        for key in variants:
            assert derive_stream(key).standard_normal() != first

    def test_replications_uncorrelated(self):
        n = 10_000
        a = np.array([derive_stream(RngStreamKey(7, replication=r)).standard_normal()
                      for r in range(n)])
        b = np.array([derive_stream(RngStreamKey(7, replication=r + n)).standard_normal()
                      for r in range(n)])
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 0.05

    def test_invalid_stage(self):
        with pytest.raises(ValueError):
            RngStreamKey(0, stage=3)


class TestProblemInstance:
    def test_block_partition_enforced(self):
        with pytest.raises(BlockMismatch):
            gen_strongly_monotone(5, seed=0, noise_scale=0.0).with_blocks([2, 2])

    def test_multi_block_needs_cartesian_set(self):
        p = gen_strongly_monotone(3, seed=0, noise_scale=0.0)
        with pytest.raises(BlockMismatch, match="Cartesian"):
            ProblemInstance(dimension=3, blocks=(2, 1), feasible_set=WholeSpace(3),
                            oracle=p.oracle, lipschitz_L=p.lipschitz_L)

    def test_cartesian_blocks_must_match_problem_blocks(self):
        p = gen_strongly_monotone(3, seed=0, noise_scale=0.0)
        fset = CartesianProduct((WholeSpace(1), WholeSpace(2)), (1, 2))
        with pytest.raises(BlockMismatch, match="Cartesian"):
            ProblemInstance(dimension=3, blocks=(2, 1), feasible_set=fset,
                            oracle=p.oracle, lipschitz_L=p.lipschitz_L)

    def test_known_solution_must_be_feasible(self):
        box = Box(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="outside the feasible set"):
            gen_strongly_monotone(3, seed=0, noise_scale=0.0, feasible=box,
                                  center=np.array([2.0, 0.5, 0.5]))

    def test_fixed_point_test_rejects_non_solution(self):
        good = gen_strongly_monotone(3, seed=0, noise_scale=0.0)
        with pytest.raises(ValueError, match="fixed-point"):
            ProblemInstance(
                dimension=3,
                oracle=good.oracle,
                mean_operator=good.mean_operator,
                lipschitz_L=good.lipschitz_L,
                feasible_set=WholeSpace(3),
                known_solutions=(good.center + 1.0,),
            )

    def test_with_blocks_splits_feasible_set(self):
        p = gen_strongly_monotone(6, seed=1, noise_scale=0.0,
                                  feasible=Box(-5 * np.ones(6), 5 * np.ones(6)),
                                  center=np.zeros(6))
        p3 = p.with_blocks([2, 2, 2])
        assert p3.n_blocks == 3
        x = np.arange(6.0) * 3 - 8
        np.testing.assert_array_equal(p3.feasible_set.project(x),
                                      p.feasible_set.project(x))


class TestMeanOperatorContract:
    """A mean operator maps a (..., n) batch row by row; one written for a
    single point is rejected with DimensionMismatch (CLI exit 2)."""

    A3 = np.random.default_rng(0).standard_normal((3, 3))
    A2 = np.random.default_rng(1).standard_normal((2, 2))

    @staticmethod
    def problem(T, n):
        return ProblemInstance(dimension=n, oracle=None, mean_operator=T, lipschitz_L=1.0,
                               feasible_set=WholeSpace(n), known_solutions=(np.zeros(n),))

    def test_single_point_product_fails_on_a_batch(self):
        with pytest.raises(DimensionMismatch, match=r"on shape \(2, 3\) it raised ValueError"):
            self.problem(lambda x: self.A3 @ x, 3)

    def test_single_point_product_mixes_rows(self):
        # at n = 2, A @ X has the batch's shape but combines the two points
        with pytest.raises(DimensionMismatch, match="differ from its single-point values"):
            self.problem(lambda x: self.A2 @ x, 2)

    def test_wrong_output_shape_is_named(self):
        with pytest.raises(DimensionMismatch, match=r"returned shape \(3,\)"):
            self.problem(lambda x: np.ones(3), 3)

    def test_stacked_product_accepted(self):
        T = lambda x: (self.A3 @ np.asarray(x)[..., None])[..., 0]
        assert self.problem(T, 3).mean_operator is T

    @pytest.mark.parametrize("check", [check_pseudo_monotone])
    def test_randomized_checks_enforce_it(self, check):
        # with samples == n a single-point product would run on the whole
        # sample matrix and report numbers for the wrong operator
        with pytest.raises(DimensionMismatch):
            check(lambda x: self.A2 @ x, WholeSpace(2), samples=2, n=2)


class TestValidate:
    def test_stepsize_below_cap_passes(self, quiet_problem):
        report = validate(quiet_problem, default_config(stepsize=0.40)).report
        assert report.passed  # 0.40 < 1/sqrt(6) = 0.40825 at L = 1

    def test_stepsize_at_cap_rejected(self, quiet_problem):
        with pytest.raises(InvalidStepsize):
            validate(quiet_problem, default_config(stepsize=0.41))

    def test_zero_stepsize_rejected(self, quiet_problem):
        with pytest.raises(InvalidStepsize):
            validate(quiet_problem, default_config(stepsize=np.array([0.0, 0.1])))

    def test_varying_stepsize_bounds(self, quiet_problem):
        cfg = default_config(stepsize=np.array([0.1, 0.2, 0.3]))
        assert cfg.stepsize_at(0) == 0.1
        assert cfg.stepsize_at(99) == 0.3  # extended by the last value
        assert validate(quiet_problem, cfg).report.passed
        with pytest.raises(InvalidStepsize):
            validate(quiet_problem, default_config(stepsize=np.array([0.1, 0.45])))

    def test_invalid_schedule_a0_b0(self):
        with pytest.raises(InvalidSchedule):
            AgentSchedule(theta=1.0, mu=3.0, a=0.0, b=0.0)

    def test_schedule_agent_count_must_match_blocks(self, quiet_problem):
        p3 = quiet_problem.with_blocks([2, 2, 1])
        cfg = default_config(schedule=SampleSchedule.uniform(1, 3, 0, 1, m=2))
        with pytest.raises(InvalidSchedule):
            validate(p3, cfg)

    def test_centralized_needs_identical_agents(self, quiet_problem):
        p3 = quiet_problem.with_blocks([2, 2, 1])
        agents = (AgentSchedule(1, 3, 0, 1), AgentSchedule(2, 3, 0, 1),
                  AgentSchedule(1, 3, 0, 1))
        cfg = default_config(schedule=SampleSchedule(agents))
        with pytest.raises(CoordinationMismatch):
            validate(p3, cfg)
        assert validate(p3, default_config(
            schedule=SampleSchedule(agents), coordination="distributed")).report.passed

    def test_fast_growing_counts_pass(self, quiet_problem):
        # N_k passes the int64 range before the 10^6 check horizon
        cfg = default_config(schedule=SampleSchedule.uniform(1, 3, 2, 1))
        assert validate(quiet_problem, cfg).report.passed

    def test_stalled_counts_rejected(self, quiet_problem):
        cfg = default_config(schedule=SampleSchedule.uniform(1e-30, 3, 0, 1))
        with pytest.raises(InvalidSchedule):
            validate(quiet_problem, cfg)

    def test_validate_is_idempotent(self, quiet_problem):
        cfg = default_config()
        r1 = validate(quiet_problem, cfg)
        r2 = validate(quiet_problem, cfg)
        assert str(r1.report) == str(r2.report)
        assert r1.rows == r2.rows and r1.alphas == r2.alphas
        assert np.array_equal(r1.cum_calls, r2.cum_calls)
