import functools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import default_config, never_drawn
from reference_impls import (
    diagnostic_sums_reference,
    fejer_audit_reference,
    korpelevich_reference,
    write_rows_reference,
)
from stochvi.core import (
    ProblemInstance,
    derive_stream,
    streams,
    validate,
)
from stochvi.errors import (
    CoordinationMismatch,
    DimensionMismatch,
    InvalidParameters,
    InvalidStepsize,
    MissingDiagnostics,
    OracleFailure,
)
from stochvi.problems import (
    AdditiveGaussianOracle,
    ConstantOracle,
    LinearMatrixNoiseOracle,
    gen_constant_noise,
    gen_linear_svi,
    gen_negative_control,
    gen_scaled_monotone,
    gen_strongly_monotone,
)
from stochvi.projection import Box, WholeSpace, project
from stochvi.sampling import AgentSchedule, SampleSchedule
from stochvi.solver import (
    _lockstep,
    _pow2,
    fejer_audit,
    martingale_probe,
    run,
    write_json,
    write_table,
)


def identity_problem(noise=0.0, n=1):
    T = lambda x: np.asarray(x, dtype=float)
    return ProblemInstance(
        dimension=n,
        oracle=AdditiveGaussianOracle(T, noise),
        mean_operator=T,
        lipschitz_L=1.0,
        feasible_set=WholeSpace(n),
        known_solutions=(np.zeros(n),),
    )


def first_step(problem, x0, **overrides):
    """The trace of ``run`` for one iteration from ``x0``; under a zero
    residual floor the run stops before its step only where r^2 is zero."""
    cfg = default_config(**{"max_iterations": 1, "residual_floor": 0.0, **overrides})
    return run(validate(problem, cfg), x0=x0)


class TestStep:
    def test_hand_recursion_identity_operator(self):
        # T(x) = x, x0 = 1, alpha = 0.2: z = 0.8, x1 = 1 - 0.2*0.8 = 0.84
        trace = first_step(identity_problem(), np.array([1.0]), stepsize=0.2)
        assert trace.n_steps == 1
        assert trace.iterates[1][0] == pytest.approx(0.84, abs=1e-12)

    def test_fixed_point_stays(self, quiet_problem):
        # r^2 is exactly zero at the solution, so only a negative floor lets
        # the run take its step there
        x_star = quiet_problem.known_solutions[0]
        trace = first_step(quiet_problem, x_star.copy(), residual_floor=-1.0)
        assert trace.n_steps == 1
        np.testing.assert_allclose(trace.iterates[1], x_star, atol=1e-14)

    def test_call_accounting_single_block(self):
        cfg = default_config(stepsize=0.2)
        trace = first_step(identity_problem(), np.array([1.0]), stepsize=0.2)
        assert trace.cum_calls[1] == 2 * cfg.schedule.sizes_upto(0)[0, 0]

    def test_distributed_call_accounting(self):
        # per-agent counts 4 and 8 at k = 0 give 2 * (4 + 8) = 24 calls
        p = replace(gen_strongly_monotone(2, seed=0, noise_scale=0.5, center=np.zeros(2)),
                    blocks=(1, 1))
        agents = (AgentSchedule(theta=4 / 9, mu=3, a=1, b=-1),
                  AgentSchedule(theta=8 / 9, mu=3, a=1, b=-1))
        schedule = SampleSchedule(agents)
        assert schedule.sizes_upto(0).tolist() == [[4, 8]]
        trace = first_step(p, np.ones(2), schedule=schedule,
                           coordination="distributed", stepsize=0.2)
        assert trace.n_steps == 1 and trace.cum_calls[1] == 24

    def test_stepsize_above_cap_rejected(self):
        # L = 1: the cap is 1/sqrt(6) = 0.408
        with pytest.raises(InvalidStepsize):
            validate(identity_problem(), default_config(stepsize=0.9))

    def test_centralized_schedule_with_differing_agents_rejected(self):
        # both agents draw 4 samples at k = 0; they differ from k = 2 on
        p = replace(gen_strongly_monotone(2, seed=0, noise_scale=0.5, center=np.zeros(2)),
                    blocks=(1, 1))
        agents = (AgentSchedule(1, 3, 0, 1), AgentSchedule(1, 3, 0, 1.01))
        with pytest.raises(CoordinationMismatch):
            validate(p, default_config(schedule=SampleSchedule(agents)))


class TestRun:
    def test_deterministic_repeat(self, monotone_problem):
        cfg = default_config(max_iterations=30)
        t1 = run(validate(monotone_problem, cfg), replication=4, x0=np.ones(5))
        t2 = run(validate(monotone_problem, cfg), replication=4, x0=np.ones(5))
        assert np.array_equal(t1.iterates, t2.iterates)
        assert np.array_equal(t1.r2, t2.r2)

    def test_replications_differ(self, monotone_problem):
        cfg = default_config(max_iterations=5)
        t1 = run(validate(monotone_problem, cfg), replication=0, x0=np.ones(5))
        t2 = run(validate(monotone_problem, cfg), replication=1, x0=np.ones(5))
        assert not np.array_equal(t1.iterates[1:], t2.iterates[1:])

    def test_zero_variance_residual_decreases_below_tolerance(self, quiet_problem):
        cfg = default_config(max_iterations=2000, diagnostics=False)
        trace = run(validate(quiet_problem, cfg), x0=np.full(5, 2.0))
        assert np.all(np.diff(trace.r2) < 0)
        assert trace.r2[-1] < 1e-12

    def test_early_stop_at_residual_floor(self, quiet_problem):
        cfg = default_config(max_iterations=10_000, diagnostics=False)
        trace = run(validate(quiet_problem, cfg), x0=np.full(5, 0.5))
        assert trace.stopped_early
        assert trace.n_steps < 10_000
        assert trace.r2[-1] <= cfg.residual_floor

    def test_iterates_stay_feasible(self):
        box = Box(np.zeros(3), np.ones(3))
        p = gen_strongly_monotone(3, seed=2, noise_scale=2.0, feasible=box,
                                  center=np.full(3, 0.5))
        cfg = default_config(max_iterations=60, stepsize=0.2 / p.lipschitz_L)
        trace = run(validate(p, cfg), x0=np.full(3, 0.9))
        from stochvi.projection import set_distance

        dists = set_distance(p.feasible_set, trace.iterates)
        assert np.max(dists) <= 1e-10

    @pytest.mark.parametrize("x0", [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]])
    def test_nonfinite_start_point_rejected_before_any_draw(self, x0):
        p = replace(gen_strongly_monotone(3, seed=1, noise_scale=0.5), oracle=never_drawn)
        with pytest.raises(InvalidParameters, match="x0 .* projects to the non-finite"):
            run(validate(p, default_config(max_iterations=3)), x0=x0)

    def test_infinite_start_point_projected_into_a_box_runs(self):
        box = Box(np.zeros(2), np.ones(2))
        p = gen_strongly_monotone(2, seed=2, noise_scale=0.5, feasible=box,
                                  center=np.full(2, 0.5))
        cfg = default_config(max_iterations=3, stepsize=0.2 / p.lipschitz_L)
        trace = run(validate(p, cfg), x0=[np.inf, 0.0])
        assert trace.iterates[0].tolist() == [1.0, 0.0]
        assert trace.n_steps == 3 and np.isfinite(trace.iterates).all()

    @pytest.mark.parametrize("replication", [2 ** 63, -2 ** 63 - 1, [0, 2 ** 63]])
    def test_replication_outside_int64_rejected(self, replication):
        plan = validate(replace(identity_problem(), oracle=never_drawn),
                        default_config(max_iterations=1))
        with pytest.raises(InvalidParameters,
                           match="replication -?[0-9]+ is outside the signed 64-bit range"):
            run(plan, replication=replication)

    def test_replication_at_the_int64_edges_runs(self):
        plan = validate(identity_problem(noise=1.0), default_config(max_iterations=2))
        ensemble = run(plan, replication=[-2 ** 63, 2 ** 63 - 1], x0=[1.0])
        assert [t.replication for t in ensemble.traces] == [-2 ** 63, 2 ** 63 - 1]

    def test_oracle_accounting_identity(self, monotone_problem):
        cfg = default_config(max_iterations=25)
        plan = validate(monotone_problem, cfg)
        trace = run(plan, x0=np.ones(5))
        expected = 2 * np.cumsum([sum(row) for row in plan.rows[:trace.n_steps]])
        np.testing.assert_array_equal(trace.cum_calls[1:], expected)

    def test_linear_svi_stays_bounded(self):
        p = gen_linear_svi(4, seed=12, noise_scale=0.2)
        cfg = default_config(stepsize=0.25 / p.lipschitz_L, max_iterations=400,
                             diagnostics=False)
        trace = run(validate(p, cfg), x0=np.full(4, 3.0))
        assert np.all(np.isfinite(trace.iterates))
        assert np.max(trace.dist2) <= 4.0 * trace.dist2[0] + 1.0

    def test_trace_csv_round_trip(self, tmp_path, monotone_problem):
        cfg = default_config(max_iterations=8)
        trace = run(validate(monotone_problem, cfg), x0=np.ones(5))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert len(data) == trace.n_steps + 1
        np.testing.assert_allclose(data["r2"], trace.r2)
        np.testing.assert_allclose(data["cum_calls"], trace.cum_calls)

    def test_scaled_monotone_rates(self):
        """The paper's O(1/K) in r^2 and in the D-gap on a pseudo-monotone,
        non-monotone operator, and the squared distance with them: each
        fitted slope over k in [20, 300] is at most -0.85."""
        from stochvi.harness import ExperimentConfig, fit_loglog_slope, run_experiment

        p = gen_scaled_monotone(5, seed=5)
        cfg = default_config(stepsize=0.9 / (np.sqrt(6.0) * p.lipschitz_L),
                             max_iterations=300, master_seed=11, diagnostics=False)
        res = run_experiment(ExperimentConfig(problem=p, solver=cfg, replications=20,
                                              x0=np.ones(5), dgap_a=1.0, dgap_b=2.0))
        for name in ("mean_r2", "mean_dgap", "mean_dist2"):
            slope, _ = fit_loglog_slope(getattr(res, name), (20, 300))
            assert slope <= -0.85, (name, slope)


class TestWriters:
    VALUES = [np.nan, np.inf, -np.inf, -0.0, 1e16, 1e-5, np.float64(0.1), np.int64(-7),
              3, 2.5]

    def test_table_matches_row_writer(self, tmp_path):
        n = len(self.VALUES)
        columns = {"k": range(n), "mixed": self.VALUES,
                   "floats": np.array([float(v) for v in self.VALUES]),
                   "ints": np.arange(n, dtype=np.int64) - 3,
                   "reversed": self.VALUES[::-1]}
        write_table(tmp_path / "table.csv", columns)
        write_rows_reference(tmp_path / "rows.csv",
                             [{h: c[i] for h, c in columns.items()} for i in range(n)])
        table = (tmp_path / "table.csv").read_bytes()
        assert table == (tmp_path / "rows.csv").read_bytes()
        assert table.splitlines()[1] == b"0,nan,nan,-3,2.5"
        with pytest.raises(ValueError):
            write_table(tmp_path / "ragged.csv", {"k": range(n + 1), "mixed": self.VALUES})
        assert not (tmp_path / "ragged.csv").exists()

    def test_json_matches_json_dump(self, tmp_path):
        doc = {"b": [1, 2.5, None, True], "a": {"z": "x", "y": [], "c": {}}, "n": -0.0,
               "big": 1e16, "small": 1e-5}
        write_json(tmp_path / "doc.json", doc)
        with open(tmp_path / "ref.json", "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        assert (tmp_path / "doc.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


class TestCartesianConsistency:
    @pytest.mark.parametrize("feasible", ["whole", "box"])
    def test_centralized_blocks_match_monolithic_bitwise(self, feasible):
        if feasible == "box":
            fset = Box(-2 * np.ones(5), 2 * np.ones(5))
        else:
            fset = WholeSpace(5)
        p1 = gen_strongly_monotone(5, seed=7, noise_scale=1.0, feasible=fset,
                                   center=np.zeros(5))
        p3 = replace(p1, blocks=(2, 2, 1))
        cfg = default_config(max_iterations=40, master_seed=11)
        t1 = run(validate(p1, cfg), x0=np.full(5, 1.5))
        t3 = run(validate(p3, cfg), x0=np.full(5, 1.5))
        assert np.array_equal(t1.iterates, t3.iterates)
        assert np.array_equal(t1.cum_calls, t3.cum_calls)

    def test_centralized_blocks_match_monolithic_bitwise_per_draw(self):
        """The same equality when every draw is made and averaged: a plain
        function oracle carries no exact_error marker."""
        p1 = gen_strongly_monotone(5, seed=7, noise_scale=1.0, center=np.zeros(5),
                                   feasible=Box(-2 * np.ones(5), 2 * np.ones(5)))
        p1 = replace(p1, oracle=lambda rng, x, size, o=p1.oracle: o(rng, x, size))
        p3 = replace(p1, blocks=(2, 2, 1))
        cfg = default_config(max_iterations=40, master_seed=11)
        t1 = run(validate(p1, cfg), x0=np.full(5, 1.5))
        t3 = run(validate(p3, cfg), x0=np.full(5, 1.5))
        assert np.array_equal(t1.iterates, t3.iterates)
        assert np.array_equal(t1.cum_calls, t3.cum_calls)

    def test_distributed_differs_but_converges_similarly(self, monotone_problem):
        p3 = replace(monotone_problem, blocks=(2, 2, 1))
        cfg_c = default_config(max_iterations=50, master_seed=3)
        cfg_d = default_config(max_iterations=50, master_seed=3,
                               coordination="distributed")
        tc = run(validate(p3, cfg_c), x0=np.ones(5))
        td = run(validate(p3, cfg_d), x0=np.ones(5))
        assert not np.array_equal(tc.iterates, td.iterates)
        assert td.r2[-1] < td.r2[0]
        # distributed billing: three blocks each drawing the shared count
        assert td.cum_calls[-1] == 3 * tc.cum_calls[-1]


class TestDeterministicLimit:
    def test_matches_standalone_reference(self, quiet_problem):
        cfg = default_config(max_iterations=500, diagnostics=False,
                             residual_floor=0.0)
        x0 = np.full(5, 2.0)
        trace = run(validate(quiet_problem, cfg), x0=x0)
        T = quiet_problem.mean_operator
        ref = korpelevich_reference(
            T, lambda v: project(quiet_problem.feasible_set, v), x0, 0.25, 500)
        gaps = np.linalg.norm(trace.iterates - ref, axis=1)
        assert np.max(gaps) <= 1e-12

    def test_matches_reference_with_projection(self):
        box = Box(np.full(3, 0.25), np.ones(3))
        p = gen_strongly_monotone(3, seed=9, noise_scale=0.0, feasible=box,
                                  center=np.full(3, 0.5))
        cfg = default_config(stepsize=0.2 / p.lipschitz_L, max_iterations=200,
                             diagnostics=False, residual_floor=0.0)
        x0 = np.array([0.3, 0.9, 1.0])
        trace = run(validate(p, cfg), x0=x0)
        ref = korpelevich_reference(
            p.mean_operator, lambda v: project(box, v), x0,
            0.2 / p.lipschitz_L, 200)
        assert np.max(np.linalg.norm(trace.iterates - ref, axis=1)) <= 1e-12


class TestFejerAudit:
    def test_zero_variance_pure_decrease(self, quiet_problem):
        cfg = default_config(max_iterations=120)
        trace = run(validate(quiet_problem, cfg), x0=np.full(5, 2.0))
        report = fejer_audit(trace, quiet_problem.known_solutions[0])
        assert report.passed
        assert report.max_violation <= 1e-10

    def test_stochastic_paths_respect_recursion(self, monotone_problem):
        cfg = default_config(max_iterations=100)
        for rep in range(5):
            trace = run(validate(monotone_problem, cfg), replication=rep, x0=np.ones(5))
            report = fejer_audit(trace, monotone_problem.known_solutions[0])
            assert report.passed, str(report)

    def test_untracked_solution_recomputed_from_errors(self, monotone_problem):
        cfg = default_config(max_iterations=40)
        trace = run(validate(monotone_problem, cfg), x0=np.ones(5))
        # audit against a perturbed reference: inequality need not hold, but
        # the computation must run off the stored z and eps2 vectors
        other = monotone_problem.known_solutions[0] + 0.01
        report = fejer_audit(trace, other)
        assert report.n_steps == 40

    def test_negative_control_violates(self):
        p = gen_negative_control(n=1)
        cfg = default_config(stepsize=0.2, max_iterations=30)
        trace = run(validate(p, cfg), x0=np.array([1.0]))
        report = fejer_audit(trace, np.zeros(1))
        assert not report.passed

    @pytest.mark.parametrize("blocks", [(), (2, 2, 1)], ids=["monolithic", "distributed"])
    def test_diagnostic_sums_match_the_step_by_step_recursion(self, monotone_problem, blocks):
        """A, M and the error norms, computed over the stored steps after
        the loop, equal the per-step recursion bit for bit."""
        p = replace(monotone_problem, blocks=blocks)
        cfg = default_config(max_iterations=60, coordination="distributed" if blocks
                             else "centralized", stepsize=np.linspace(0.3, 0.2, 60))
        for rep in range(3):
            trace = run(validate(p, cfg), replication=rep, x0=np.ones(5))
            A, M = diagnostic_sums_reference(trace)
            assert np.array_equal(trace.A, A) and np.array_equal(trace.M, M)
            assert np.array_equal(trace.eps2_norm, [np.linalg.norm(e) for e in trace.eps2])

    def test_squares_match_scalar_pow(self):
        """The vectorised recursions square as the per-step scalar ``** 2``
        (libm pow) did; an array's ``** 2`` multiplies, and the two differ
        in the last bit about once in 1000 values."""
        v = 10.0 * np.random.default_rng(3).standard_normal(20_000)
        assert np.array_equal(_pow2(v), [float(x) ** 2 for x in v])

    @pytest.mark.parametrize("case", ["tracked", "untracked", "negative_control"])
    def test_matches_the_step_by_step_reference(self, monotone_problem, case):
        """The vectorised audit equals the per-step loop bit for bit."""
        p = gen_negative_control(n=1) if case == "negative_control" else monotone_problem
        cfg = default_config(stepsize=0.2, max_iterations=30, diagnostics=True)
        x_star = p.known_solutions[0] + (0.01 if case == "untracked" else 0.0)
        for rep in range(3):
            trace = run(validate(p, cfg), replication=rep, x0=np.ones(p.dimension))
            report = fejer_audit(trace, x_star)
            assert (report.max_violation, report.max_rel_violation, report.n_violations) \
                == fejer_audit_reference(trace, x_star)
            if case != "untracked":  # the inequality holds only at a solution
                assert report.passed == (case == "tracked")

    def test_requires_diagnostics(self, quiet_problem):
        cfg = default_config(diagnostics=False, max_iterations=5)
        trace = run(validate(quiet_problem, cfg), x0=np.ones(5))
        with pytest.raises(MissingDiagnostics):
            fejer_audit(trace, quiet_problem.known_solutions[0])


class TestMartingaleProbe:
    def test_zero_variance_increments_vanish(self, quiet_problem):
        cfg = default_config(max_iterations=1)
        res = martingale_probe(validate(quiet_problem, cfg), np.ones(5), replications=50)
        assert abs(res.mean) <= 1e-12

    def test_constant_noise_zero_mean(self):
        p = gen_constant_noise(sigma=1.0)
        cfg = default_config(stepsize=0.2, max_iterations=1)
        res = martingale_probe(validate(p, cfg), np.array([0.7]), replications=10_000)
        assert res.passed, str(res)

    def test_one_replication_rejected(self):
        # one increment has no standard error, so a 4-SE band tests nothing
        p = gen_constant_noise(sigma=1.0)
        with pytest.raises(InvalidParameters, match="2 replications"):
            martingale_probe(validate(p, default_config(max_iterations=1)), np.array([0.7]),
                             replications=1)

    @pytest.mark.parametrize("x", [np.ones(3), 1.0, np.ones((1, 5))])
    def test_point_must_have_the_problem_dimension(self, quiet_problem, x):
        # a scalar would broadcast to every coordinate and run silently
        plan = validate(quiet_problem, default_config(max_iterations=1))
        with pytest.raises(DimensionMismatch, match=r"x must have shape \(5,\)"):
            martingale_probe(plan, x, replications=2)

    def test_nonfinite_point_rejected_before_any_draw(self, quiet_problem):
        plan = validate(replace(quiet_problem, oracle=never_drawn),
                        default_config(max_iterations=1))
        with pytest.raises(InvalidParameters, match="x must be finite"):
            martingale_probe(plan, np.array([np.inf, 0.0, 0.0, 0.0, 0.0]), replications=2)


@pytest.mark.parametrize("error", [False, True])
@pytest.mark.parametrize("sl", [slice(None), slice(1, 3)], ids=["whole", "1:3"])
@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("make", [
    lambda T: AdditiveGaussianOracle(T, 0.5),
    lambda T: LinearMatrixNoiseOracle(T, 0.5),
    lambda T: ConstantOracle(0.5),
], ids=["additive", "linear", "constant"])
def test_block_width_is_the_slice_of_the_point(make, n, sl, error):
    """Each built-in oracle takes its width from the point it is handed."""
    oracle = make(lambda x: np.asarray(x, dtype=float))
    x = np.linspace(-1.0, 1.0, n)
    out = oracle.block(np.random.default_rng(3), x, 4, sl, error=error)
    width = len(range(len(x))[sl])
    assert out.shape == ((width,) if error else (4, width))


def user_problem(oracle, blocks=()):
    """Identity operator sampled through a plain-function oracle (no
    ``block`` method, no ``exact_error`` marker)."""
    T = lambda x: np.asarray(x, dtype=float)
    return ProblemInstance(dimension=3, oracle=oracle, mean_operator=T,
                           lipschitz_L=1.0, feasible_set=WholeSpace(3),
                           known_solutions=(np.zeros(3),), blocks=blocks)


def odd_state_identity(rng, x, size):
    """Per-draw oracle that leaves its generator with a half-used buffer and
    a cached uint32 behind."""
    draws = TestStageMean.noisy_identity(rng, x, size)
    rng.bit_generator.random_raw(3)
    rng.integers(0, 9, dtype=np.uint32)
    return draws


class PerDrawBlock:
    """Per-draw oracle whose ``block`` draws only the block's columns (no
    ``exact_error`` marker): a block comes from ``block``, not from slicing."""

    def __call__(self, rng, x, size):
        return self.block(rng, x, size, slice(None))

    def block(self, rng, x, size, sl):
        x = np.asarray(x, dtype=float)[sl]
        return x + 0.5 * rng.standard_normal((size, len(x)))


def exact_error_problem(blocks):
    """Built-in additive Gaussian oracle: stage errors from the exact law."""
    return replace(gen_strongly_monotone(3, seed=0, noise_scale=0.5), blocks=blocks)


class TestStageMean:
    @staticmethod
    def noisy_identity(rng, x, size):
        return np.asarray(x, dtype=float) + 0.5 * rng.standard_normal((size, len(x)))

    @pytest.mark.parametrize("make,coordination", [
        pytest.param(lambda: user_problem(TestStageMean.noisy_identity, (2, 1)),
                     "centralized", id="centralized"),
        pytest.param(lambda: user_problem(TestStageMean.noisy_identity, (2, 1)),
                     "distributed", id="distributed"),
        pytest.param(lambda: exact_error_problem((3,)), "centralized", id="exact-centralized-m1"),
        pytest.param(lambda: exact_error_problem((1, 1, 1)), "distributed",
                     id="exact-distributed-m3"),
        pytest.param(lambda: user_problem(odd_state_identity, (2, 1)), "centralized",
                     id="odd_state-centralized"),
        pytest.param(lambda: user_problem(odd_state_identity, (1, 1, 1)), "distributed",
                     id="odd_state-distributed-m3"),
        pytest.param(lambda: user_problem(PerDrawBlock(), (2, 1)), "centralized",
                     id="per_draw_block-centralized"),
        pytest.param(lambda: user_problem(PerDrawBlock(), (1, 1, 1)), "distributed",
                     id="per_draw_block-distributed-m3"),
    ])
    def test_user_oracle_averages_its_draws_bitwise(self, make, coordination):
        """Each stage mean equals the one drawn from ``derive_stream`` of its
        key, whatever stage the run's generator served before."""
        p = make()
        cfg = default_config(coordination=coordination, master_seed=5)
        plan = validate(p, cfg)
        advance = _lockstep(plan)
        blocks = [(0, slice(None))] if coordination == "centralized" \
            else list(enumerate(p.block_slices()))

        def expected(k, stage, point):
            out = []
            for i, sl in blocks:
                rng = derive_stream(5, 3, k, stage, i)
                n = plan.rows[k][i]
                if getattr(p.oracle, "exact_error", False):
                    t = p.mean_operator(point)[sl]
                    out.append(t + p.oracle.block(rng, point, n, sl, error=True))
                elif coordination == "distributed" and hasattr(p.oracle, "block"):
                    out.append(p.oracle.block(rng, point, n, sl).mean(axis=0))
                else:
                    out.append(p.oracle(rng, point, n)[:, sl].mean(axis=0))
            return np.concatenate(out)

        x = np.array([0.3, -1.2, 2.0])
        for k in (17, 0, 4, 17):
            (z,), (g1,), (g2,), *_, billed = advance([3], k, x[None], p.mean_operator(x[None]))
            assert np.array_equal(g1, expected(k, 1, x))
            assert np.array_equal(g2, expected(k, 2, z))
            assert billed == 2 * sum(plan.rows[k])
            assert plan.cum_calls[k + 1] - plan.cum_calls[k] == billed

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1),
           replications=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=3),
           k=st.integers(0, 10**6), stage=st.sampled_from([1, 2]),
           block=st.integers(0, 7), sample=st.integers(1, 2**32 - 1),
           words=st.integers(0, 7))
    def test_rekeyed_stream_equals_derive_stream(self, seed, replications, k, stage, block,
                                                 sample, words):
        keyed = streams(seed)
        # the previous stream leaves a half-used buffer and a cached uint32,
        # and so does each row for the next
        previous = next(keyed(replications[:1], k + 1, 3 - stage, block))
        previous.bit_generator.random_raw(words)
        previous.integers(0, 9, dtype=np.uint32)
        for replication, ours in zip(replications, keyed(replications, k, stage, block, sample),
                                     strict=True):
            ref = derive_stream(seed, replication, k, stage, block, sample)
            assert np.array_equal(ours.bit_generator.random_raw(5),
                                  ref.bit_generator.random_raw(5))
            assert np.array_equal(ours.standard_normal(9), ref.standard_normal(9))
            assert np.array_equal(ours.integers(0, 2**32, 7, dtype=np.uint32),
                                  ref.integers(0, 2**32, 7, dtype=np.uint32))

    def test_nonfinite_oracle_output_raises(self):
        state = {"calls": 0}

        def faulty(rng, x, size):
            state["calls"] += 1
            out = self.noisy_identity(rng, x, size)
            return out * np.nan if state["calls"] == 5 else out

        with pytest.raises(OracleFailure, match="iteration 2, stage 1"):
            run(validate(user_problem(faulty), default_config(max_iterations=50)),
                x0=np.ones(3))
        assert state["calls"] == 5

    class NarrowBlock:
        """Full draws are right; ``block`` returns one column for any block."""

        exact_error = False

        def __call__(self, rng, x, size):
            return np.asarray(x, dtype=float) + 0.5 * rng.standard_normal((size, len(x)))

        def block(self, rng, x, size, sl, error=False):
            if error:
                return 0.5 / np.sqrt(size) * rng.standard_normal()
            return self(rng, x, size)[:, sl][:, :1]

    @pytest.mark.parametrize("exact_error", [False, True], ids=["per_draw", "exact"])
    def test_wrong_block_width_raises(self, exact_error):
        # a 2-wide block answered with width 1 (per draw) or a scalar (exact
        # error) would broadcast into the block unnoticed
        oracle = self.NarrowBlock()
        oracle.exact_error = exact_error
        with pytest.raises(OracleFailure, match="block"):
            run(validate(user_problem(oracle, blocks=(2, 1)),
                         default_config(coordination="distributed", max_iterations=3)),
                x0=np.ones(3))


class TestOracleBilling:
    """The solver's billing and the oracle calls it makes cannot disagree.

    A call tracer wraps ``block`` and ``__call__`` of the built-in oracle
    classes once a plan exists and reads ``size`` as the fourth positional
    argument; these wrappers do the same, counting outermost calls only
    (``__call__`` delegates to ``block``)."""

    @pytest.mark.parametrize("coordination", ["distributed", "centralized"])
    def test_oracle_sizes_add_up_to_cum_calls(self, monotone_problem, coordination):
        R, K = 3, 20
        plan = validate(replace(monotone_problem, blocks=(2, 2, 1)),
                        default_config(coordination=coordination, max_iterations=K))
        assert len(plan.draw_sets) == (3 if coordination == "distributed" else 1)
        seen = {"calls": 0, "size": 0, "depth": 0}

        def counting(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if seen["depth"] == 0:
                    seen["calls"] += 1
                    seen["size"] += args[3]
                seen["depth"] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    seen["depth"] -= 1
            return wrapper

        saved = [(cls, name, vars(cls)[name])
                 for cls in (AdditiveGaussianOracle, LinearMatrixNoiseOracle, ConstantOracle)
                 for name in ("block", "__call__")]
        try:
            for cls, name, fn in saved:
                setattr(cls, name, counting(fn))
            ensemble = run(plan, replication=range(R), x0=np.ones(5))
        finally:
            for cls, name, fn in saved:
                setattr(cls, name, fn)
        traces = ensemble.traces
        assert all(vars(cls)[name] is fn for cls, name, fn in saved)
        assert all(t.n_steps == K for t in traces) and ensemble.n_steps == R * K
        assert seen["size"] == sum(int(t.cum_calls[-1]) for t in traces) \
            == ensemble.cum_calls[-1]
        assert seen["calls"] == R * K * 2 * len(plan.draw_sets)


def counting(T):
    """``T`` behind a wrapper that counts the points it is evaluated at in
    ``calls[0]`` (one per call on a point, one per row on a batch) and its
    calls in ``calls[1]``."""
    calls = [0, 0]

    def counted(x):
        calls[0] += int(np.prod(np.shape(x)[:-1]))
        calls[1] += 1
        return T(x)

    return counted, calls


class TestSharedMeanOperator:
    """A stage evaluates the problem's T once at its point for all of its
    draw sets, and ``run`` hands T(x^k) to both the residual and the first
    stage.  An ``exact_error`` oracle draws only the stage error, so the
    operator it is centred on is never evaluated on that route."""

    @staticmethod
    def counted(noise=1.0, blocks=(5,)):
        base = gen_strongly_monotone(5, seed=3, noise_scale=noise, center=np.zeros(5))
        T, calls = counting(base.mean_operator)
        problem = replace(base, oracle=AdditiveGaussianOracle(T, noise), mean_operator=T)
        return replace(problem, blocks=blocks), calls

    @pytest.mark.parametrize("coordination, blocks",
                             [("centralized", (5,)), ("distributed", (2, 2, 1))])
    def test_run_evaluates_T_once_per_point(self, coordination, blocks):
        # x^0..x^K for the residual (x^k also for stage 1), z^0..z^(K-1) for stage 2
        K = 12
        problem, calls = self.counted(blocks=blocks)
        plan = validate(problem, default_config(coordination=coordination, max_iterations=K,
                                                residual_floor=0.0, diagnostics=False))
        calls[:] = 0, 0
        trace = run(plan, replication=1, x0=np.ones(5))
        assert trace.n_steps == K and not trace.stopped_early
        assert calls == [2 * K + 1, 2 * K + 1]

    @pytest.mark.parametrize("coordination, blocks",
                             [("centralized", (5,)), ("distributed", (2, 2, 1))])
    def test_diagnostics_evaluate_no_further_T(self, coordination, blocks):
        """A diagnostics run takes its stage errors from the T(x^k) and
        T(z^k) its stages used: still 2K+1 points."""
        K = 12
        problem, calls = self.counted(blocks=blocks)
        plan = validate(problem, default_config(coordination=coordination, max_iterations=K,
                                                residual_floor=0.0, diagnostics=True))
        calls[:] = 0, 0
        trace = run(plan, replication=1, x0=np.ones(5))
        assert trace.n_steps == K and trace.A is not None
        assert calls == [2 * K + 1, 2 * K + 1]

    def test_martingale_probe_evaluates_T_once_per_point(self):
        # T(x) once for every replication's first stage, T(z) once per
        # replication: one call on the point, one on the ensemble's R rows
        R = 50
        problem, calls = self.counted()
        plan = validate(problem, default_config(max_iterations=1))
        calls[:] = 0, 0
        martingale_probe(plan, np.ones(5), replications=R)
        assert calls == [R + 1, 2]

    @pytest.mark.parametrize("coordination, blocks",
                             [("centralized", (5,)), ("distributed", (2, 2, 1))])
    def test_oracle_on_a_distinct_callable_evaluates_no_T(self, coordination, blocks):
        """An oracle centred on an equal but distinct callable: a run
        evaluates the problem's T 2K+1 times and the oracle's own never."""
        base = gen_strongly_monotone(5, seed=3, noise_scale=1.0, center=np.zeros(5))
        T, calls = counting(base.mean_operator)
        own, own_calls = counting(base.mean_operator)
        problem = replace(base, oracle=AdditiveGaussianOracle(own, 1.0), mean_operator=T)
        K = 12
        plan = validate(replace(problem, blocks=blocks), default_config(
            coordination=coordination, max_iterations=K, residual_floor=0.0,
            diagnostics=False))
        calls[:] = own_calls[:] = 0, 0
        trace = run(plan, replication=1, x0=np.ones(5))
        assert trace.n_steps == K and not trace.stopped_early
        assert (calls, own_calls) == ([2 * K + 1, 2 * K + 1], [0, 0])

    @pytest.mark.parametrize("coordination, blocks",
                             [("centralized", (8,)), ("distributed", (3, 3, 2))])
    def test_linear_oracle_reads_T_it_is_handed(self, coordination, blocks):
        """A linear SVI run evaluates the problem's T 2K+1 times, and its
        oracle forms no product Abar x of its own."""
        base = gen_linear_svi(8, seed=3, noise_scale=0.2)
        T, calls = counting(base.mean_operator)
        own, own_calls = counting(base.mean_operator)
        problem = replace(base, oracle=LinearMatrixNoiseOracle(own, 0.2), mean_operator=T,
                          blocks=blocks)
        K = 12
        plan = validate(problem, default_config(
            coordination=coordination, max_iterations=K, residual_floor=0.0,
            diagnostics=False, stepsize=0.2 / problem.lipschitz_L))
        calls[:] = 0, 0
        trace = run(plan, replication=1, x0=np.ones(8))
        assert trace.n_steps == K and not trace.stopped_early
        assert (calls, own_calls) == ([2 * K + 1, 2 * K + 1], [0, 0])
        # a noiseless stage mean is the t it was handed, not a product of its own
        quiet, t = replace(problem, oracle=LinearMatrixNoiseOracle(own, 0.0)), np.arange(8.0)
        for sl in (slice(None), slice(3, 6)):
            (out,) = quiet.route(sl)([None], np.ones((1, 8)), 4, t[None])
            assert out.tobytes() == t[sl].tobytes()
        assert own_calls[0] == 0

    @pytest.mark.parametrize("coordination", ["centralized", "distributed"])
    def test_sharing_changes_no_bit(self, coordination):
        """An oracle centred on an equal but distinct callable gives the
        same traces bit for bit."""
        problem, _ = self.counted(blocks=(2, 2, 1))
        T = problem.mean_operator
        own = replace(problem, oracle=AdditiveGaussianOracle(lambda x: T(x), 1.0))
        cfg = default_config(coordination=coordination, max_iterations=15)
        a, b = (run(validate(p, cfg), replication=2, x0=np.ones(5)) for p in (problem, own))
        for field in ("iterates", "r2", "z", "eps2", "A", "cum_calls"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

    @pytest.mark.parametrize("coordination", ["centralized", "distributed"])
    def test_oracle_on_another_operator_keeps_its_law(self, coordination):
        """The exact-error route centres every stage on the problem's T; an
        oracle centred on another operator keeps its own law once it drops
        the marker, since its draws are then averaged."""
        base = gen_strongly_monotone(5, seed=3, noise_scale=0.0, center=np.zeros(5))
        T = base.mean_operator
        oracle = AdditiveGaussianOracle(lambda x: T(x) + 1.0, 0.0)
        x = np.linspace(-1.0, 1.5, 5)
        for exact_error, shift in ((True, 0.0), (False, 1.0)):
            oracle.exact_error = exact_error
            problem = replace(base, oracle=oracle, blocks=(2, 2, 1))
            advance = _lockstep(validate(problem, default_config(coordination=coordination)))
            (z,), (g1,), (g2,), *_ = advance([0], 0, x[None], T(x[None]))
            np.testing.assert_allclose(g1, T(x) + shift, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(g2, T(z) + shift, rtol=1e-15, atol=0.0)

    def test_oracle_with_the_old_marker_is_not_shifted(self):
        """An oracle written to the former ``exact_mean`` contract, whose
        ``block(..., mean=True)`` returned the whole average, takes the
        per-draw route: its draws are averaged and never shifted by T(x)."""

        class OldContract:
            exact_mean = True

            def __call__(self, rng, x, size):
                return self.block(rng, x, size, slice(None))

            def block(self, rng, x, size, sl, mean=False):
                shifted = np.asarray(x, dtype=float)[sl] + 0.5
                return shifted if mean else np.tile(shifted, (size, 1))

        problem = replace(identity_problem(n=3), oracle=OldContract(), blocks=(1, 2))
        x = np.array([1.0, -2.0, 0.25])
        for sl in (slice(None), slice(1, 3)):
            (out,) = problem.route(sl)([None], x[None], 4, problem.mean_operator(x[None]))
            assert out.tobytes() == (x + 0.5)[sl].tobytes()
        for coordination in ("centralized", "distributed"):
            advance = _lockstep(validate(problem, default_config(coordination=coordination)))
            _, (g1,), *_ = advance([0], 4, x[None], problem.mean_operator(x[None]))
            assert g1.tobytes() == (x + 0.5).tobytes()

    def test_exact_error_oracle_without_block_is_rejected(self):
        """The exact law is reached through ``block`` only, so an oracle that
        declares ``exact_error`` without one fails when its route is resolved
        on a problem with T; without T its draws are averaged."""

        class NoBlock:
            exact_error = True

            def __call__(self, rng, x, size):
                return np.tile(x, (size, 1))

        problem = replace(identity_problem(n=3), oracle=NoBlock())
        with pytest.raises(OracleFailure, match="exact_error must have a block method"):
            problem.route()
        oracle_only = replace(problem, mean_operator=None)
        assert oracle_only.route()([None], np.array([[1.0, 2.0, 3.0]]), 2).tolist() == [[1, 2, 3]]
        with pytest.raises(OracleFailure, match="block method"):
            run(validate(problem, default_config(max_iterations=2)), x0=np.ones(3))

    def test_route_without_t_averages_the_draws(self):
        """Without T(x) even an ``exact_error`` oracle's route averages its
        draws, bit for bit, for the whole point and for a block."""
        problem, _ = self.counted(blocks=(2, 2, 1))
        x = np.linspace(-1.0, 1.5, 5)
        for sl in (slice(None), slice(2, 4)):
            (out,) = problem.route(sl)([derive_stream(7)], x[None], 4)
            draws = problem.oracle.block(derive_stream(7), x, 4, sl)
            assert out.tobytes() == draws.mean(axis=0).tobytes()

    def test_zero_noise_stage_mean_does_not_alias_t(self):
        problem, _ = self.counted(noise=0.0, blocks=(2, 2, 1))
        x = np.linspace(-1.0, 1.5, 5)
        t = problem.mean_operator(x)
        kept = t.copy()
        rng = np.random.default_rng(0)
        for sl in (slice(None), slice(2, 4)):
            (out,) = problem.route(sl)([rng], x[None], 4, t[None])
            assert out.tobytes() == t[sl].tobytes()
            assert not np.shares_memory(out, t)
            out[...] = 7.0
            assert t.tobytes() == kept.tobytes()
        for coordination in ("centralized", "distributed"):
            advance = _lockstep(validate(problem, default_config(coordination=coordination)))
            _, (g1,), *_ = advance([0], 0, x[None], t[None])
            assert g1.tobytes() == t.tobytes() and not np.shares_memory(g1, t)
