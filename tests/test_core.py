import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import default_config
from stochvi.core import (
    ProblemInstance,
    derive_stream,
    validate,
)
from stochvi.errors import (
    BlockMismatch,
    CoordinationMismatch,
    DimensionMismatch,
    InvalidParameters,
    InvalidSchedule,
    InvalidStepsize,
)
from stochvi.problems import check_pseudo_monotone, gen_strongly_monotone
from stochvi.projection import (
    Ball,
    Box,
    CartesianProduct,
    NonnegativeOrthant,
    WholeSpace,
    block_slices,
)
from stochvi.sampling import AgentSchedule, SampleSchedule
from stochvi.solver import run
from test_lockstep import assert_same_trace


class TestStreams:
    def test_same_key_reproduces_draws(self):
        key = dict(replication=3, iteration=17, stage=2, block=1)
        a = derive_stream(42, **key).standard_normal(100)
        b = derive_stream(42, **key).standard_normal(100)
        assert np.array_equal(a, b)

    def test_stage_changes_stream(self):
        k1 = derive_stream(42, replication=3, iteration=17, stage=1)
        k2 = derive_stream(42, replication=3, iteration=17, stage=2)
        assert k1.standard_normal() != k2.standard_normal()

    def test_each_field_changes_stream(self):
        first = derive_stream(42, 1, 2, 1, 3, 4).standard_normal()
        variants = [
            (43, 1, 2, 1, 3, 4),
            (42, 2, 2, 1, 3, 4),
            (42, 1, 3, 1, 3, 4),
            (42, 1, 2, 2, 3, 4),
            (42, 1, 2, 1, 4, 4),
            (42, 1, 2, 1, 3, 5),
        ]
        for key in variants:
            assert derive_stream(*key).standard_normal() != first

    def test_replications_uncorrelated(self):
        n = 10_000
        a = np.array([derive_stream(7, replication=r).standard_normal()
                      for r in range(n)])
        b = np.array([derive_stream(7, replication=r + n).standard_normal()
                      for r in range(n)])
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 0.05

    def test_invalid_stage(self):
        with pytest.raises(ValueError):
            derive_stream(0, stage=3)


class TestProblemInstance:
    def test_block_partition_enforced(self):
        with pytest.raises(BlockMismatch):
            replace(gen_strongly_monotone(5, seed=0, noise_scale=0.0), blocks=(2, 2))

    @pytest.mark.parametrize("n, blocks", [(2, [2, 0]), (5, [-1, 6])],
                             ids=["empty", "negative"])
    def test_blocks_below_one_rejected(self, n, blocks):
        """An empty block would be an agent that owns no coordinate yet bills
        N_k calls a stage; a negative one would cut the slices 0:-1 and -1:n."""
        with pytest.raises(BlockMismatch, match="at least one coordinate"):
            replace(gen_strongly_monotone(n, seed=0, noise_scale=0.5), blocks=blocks)

    def test_multi_block_needs_cartesian_set(self):
        """A ball is no product along blocks (2, 1), alone or as the one
        factor of a product."""
        p = gen_strongly_monotone(3, seed=0, noise_scale=0.0)
        ball = Ball(np.zeros(3), 1.0)
        for fset in (ball, CartesianProduct((ball,), (3,))):
            with pytest.raises(BlockMismatch, match="Cartesian"):
                ProblemInstance(dimension=3, blocks=(2, 1), feasible_set=fset,
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
                known_solutions=(good.known_solutions[0] + 1.0,),
            )

    def test_separable_set_runs_as_its_product(self):
        """A whole space, orthant or box is a product along any partition, so
        a problem keeps it under blocks (2, 2, 1); its runs, centralized and
        distributed with diagnostics on, equal bit for bit those on the
        explicit product of its factors."""
        blocks = (2, 2, 1)
        lower = np.array([-2.0, -np.inf, -0.0, -1.0, 0.0])
        upper = np.array([2.0, 1.0, np.inf, 0.5, 0.0])
        sets = [(WholeSpace(), [WholeSpace(s) for s in blocks]),
                (NonnegativeOrthant(5), [NonnegativeOrthant(s) for s in blocks]),
                (Box(lower, upper), [Box(lower[sl], upper[sl]) for sl in block_slices(blocks)])]
        for fset, parts in sets:
            kept = replace(gen_strongly_monotone(5, seed=2, noise_scale=1.0, feasible=fset,
                                                 center=np.zeros(5)), blocks=blocks)
            assert kept.feasible_set is fset
            product = replace(kept, feasible_set=CartesianProduct(tuple(parts), blocks))
            for coordination in ("centralized", "distributed"):
                cfg = default_config(max_iterations=20, master_seed=5, coordination=coordination)
                a, b = (run(validate(p, cfg), replication=range(3), x0=np.full(5, 1.5)).traces
                        for p in (kept, product))
                for ours, ref in zip(a, b, strict=True):
                    assert_same_trace(ours, ref)


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
        validate(quiet_problem, default_config(stepsize=0.40))  # < 1/sqrt(6) = 0.40825

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
        validate(quiet_problem, cfg)
        with pytest.raises(InvalidStepsize):
            validate(quiet_problem, default_config(stepsize=np.array([0.1, 0.45])))

    def test_stepsize_sequence_config_compares_and_hashes(self):
        cfg = default_config(stepsize=np.array([0.3, 0.2, 0.1]))
        copy = replace(cfg)
        assert cfg.stepsize == (0.3, 0.2, 0.1)
        assert cfg == copy and hash(cfg) == hash(copy)
        assert cfg != replace(cfg, stepsize=[0.3, 0.2])
        assert default_config(stepsize=0.25).stepsize == (0.25,)

    def test_empty_stepsize_sequence_rejected(self):
        with pytest.raises(InvalidStepsize, match="nonempty"):
            default_config(stepsize=[])

    def test_cap_agrees_with_the_constants_inputs(self):
        """``validate`` and ``ConstantsInputs`` accept the same stepsizes at
        the cap 1/(sqrt(6) L), to the last bit, for random L."""
        from stochvi.constants import ConstantsInputs

        gen = np.random.default_rng(11)
        schedule = SampleSchedule.uniform(1, 3, 0, 1)
        for L in np.exp(gen.uniform(-5.0, 5.0, 60)).tolist():
            problem = ProblemInstance(dimension=1, oracle=None, lipschitz_L=L,
                                      feasible_set=WholeSpace(1))
            for cap in {1.0 / math.sqrt(6.0) / L, 1.0 / (math.sqrt(6.0) * L)}:
                for alpha in (np.nextafter(cap, 0.0), cap, np.nextafter(cap, np.inf)):
                    verdicts = []
                    for check in (lambda: validate(problem, default_config(stepsize=alpha)),
                                  lambda: ConstantsInputs(L=L, alpha=alpha, sigma=0.0,
                                                          schedule=schedule)):
                        try:
                            check()
                            verdicts.append(True)
                        except InvalidStepsize:
                            verdicts.append(False)
                    assert verdicts[0] == verdicts[1], (L, alpha)

    @pytest.mark.parametrize("K", [2.5, 3.0, True, "7"])
    def test_max_iterations_must_be_an_integer(self, K):
        with pytest.raises(InvalidParameters, match="max_iterations must be an integer"):
            default_config(max_iterations=K)

    def test_nan_residual_floor_rejected(self):
        with pytest.raises(InvalidParameters, match="residual_floor"):
            default_config(residual_floor=float("nan"))

    @pytest.mark.parametrize("theta, K", [(1, 10 ** 12), (1, 10 ** 400), (1, 2 ** 62),
                                          (1e17, 10)],
                             ids=["K=1e12", "K=1e400", "K=2^62", "N_k=8.6e18"])
    def test_horizon_past_int64_rejected_before_any_table(self, quiet_problem, monkeypatch,
                                                          theta, K):
        """A horizon whose billed total 2 sum_(k<K) sum_i N_{k,i} could leave
        int64 raises before ``sizes_upto`` would allocate its K + 1 rows; at
        theta = 1e17 every count fits in int64 but ten of them do not."""
        def no_table(self, k_max):
            raise AssertionError(f"tabulated {k_max + 1} rows")

        monkeypatch.setattr(SampleSchedule, "sizes_upto", no_table)
        cfg = default_config(schedule=SampleSchedule.uniform(theta, 3, 0, 1), max_iterations=K)
        with pytest.raises(InvalidSchedule, match="max_iterations"):
            validate(quiet_problem, cfg)

    def test_invalid_schedule_a0_b0(self):
        with pytest.raises(InvalidSchedule):
            AgentSchedule(theta=1.0, mu=3.0, a=0.0, b=0.0)

    def test_schedule_agent_count_must_match_blocks(self, quiet_problem):
        p3 = replace(quiet_problem, blocks=(2, 2, 1))
        cfg = default_config(schedule=SampleSchedule.uniform(1, 3, 0, 1, m=2))
        with pytest.raises(InvalidSchedule):
            validate(p3, cfg)

    def test_centralized_needs_identical_agents(self, quiet_problem):
        p3 = replace(quiet_problem, blocks=(2, 2, 1))
        agents = (AgentSchedule(1, 3, 0, 1), AgentSchedule(2, 3, 0, 1),
                  AgentSchedule(1, 3, 0, 1))
        cfg = default_config(schedule=SampleSchedule(agents))
        with pytest.raises(CoordinationMismatch):
            validate(p3, cfg)
        validate(p3, default_config(schedule=SampleSchedule(agents),
                                    coordination="distributed"))

    def test_fast_growing_counts_pass(self, quiet_problem):
        # N_k passes the int64 range before the 10^6 check horizon
        cfg = default_config(schedule=SampleSchedule.uniform(1, 3, 2, 1))
        validate(quiet_problem, cfg)

    def test_stalled_counts_rejected(self, quiet_problem):
        cfg = default_config(schedule=SampleSchedule.uniform(1e-30, 3, 0, 1))
        with pytest.raises(InvalidSchedule):
            validate(quiet_problem, cfg)

    def test_validate_is_idempotent(self, quiet_problem):
        cfg = default_config()
        r1 = validate(quiet_problem, cfg)
        r2 = validate(quiet_problem, cfg)
        assert r1.draw_sets == r2.draw_sets
        assert r1.rows == r2.rows
        assert np.array_equal(r1.alphas, r2.alphas)
        assert np.array_equal(r1.cum_calls, r2.cum_calls)
