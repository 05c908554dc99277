import argparse
import json
import math
from dataclasses import replace
from inspect import signature

import numpy as np
import pytest

from reference_impls import carry_forward_statistics_reference
from stochvi.cli import build_parser, main as cli_main
from stochvi.core import validate
from stochvi.errors import ConfigError, InvalidParameters
from stochvi.harness import (
    config_hash,
    constants_cmd,
    constants_inputs_from_config,
    experiment_from_config,
    effective_mean_operator,
    fit_loglog_slope,
    format_constants_table,
    PROBES,
    probe,
    problem_from_config,
    run_experiment,
    _run_summary,
    solver_config_from_config,
)
from stochvi.problems import gen_constant_noise
from stochvi.projection import feasible_set_from_config
from stochvi.sampling import SampleSchedule
from stochvi.solver import run


def experiment_doc(**overrides):
    doc = {
        "schema_version": 1,
        "problem": {"kind": "strongly_monotone", "n": 3, "seed": 5,
                    "noise_scale": 0.5, "center": [0.0, 0.0, 0.0]},
        "solver": {"stepsize": 0.25, "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1},
                   "max_iterations": 40, "master_seed": 21, "diagnostics": False},
        "replications": 4,
        "x0": [1.0, 1.0, 1.0],
        "rate_fit_window": [5, 40],
        "epsilon": 1e-3,
    }
    doc.update(overrides)
    return doc


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


CONSTANTS_DOC = {"L": 1.0, "alpha": 0.25, "sigma": 0.0,
                 "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1},
                 "phi": 0.5, "d0": 1.0}


def incomplete_documents(fejer):
    """(subcommand, document, text the error names) for documents that miss
    a required key, give a value of the wrong JSON type, or give a value
    outside its domain; ``fejer`` is a complete fejer_audit probe document."""
    solver = experiment_doc()["solver"]
    fejer = dict(fejer, kind="fejer_audit")
    cases = [("solve", experiment_doc(solver=dict(solver, schedule={"mu": 3})), "theta"),
             ("experiment", experiment_doc(solver=dict(solver, schedule=[{"theta": 1}])),
              "mu"),
             ("probe", dict(fejer, solver=dict(fejer["solver"], schedule={"mu": 3})),
              "theta"),
             ("constants", dict(CONSTANTS_DOC, schedule={"theta": 1}), "mu"),
             ("constants", dict(CONSTANTS_DOC, m=3.0), "m must be an integer")]
    cases += [("constants", without(CONSTANTS_DOC, key), key)
              for key in ("L", "alpha", "sigma", "schedule")]
    cases += [("experiment", without(experiment_doc(), key), key)
              for key in ("problem", "solver")]
    cases += [("experiment", experiment_doc(solver=without(solver, key)), key)
              for key in ("stepsize", "schedule", "max_iterations")]
    cases += [("solve", experiment_doc(problem=without(experiment_doc()["problem"], "n")),
               "missing keys ['n'] in problem kind 'strongly_monotone'")]
    cases += [("solve", experiment_doc(problem={"kind": kind, "seed": 1}),
               f"missing keys ['n'] in problem kind '{kind}'")
              for kind in ("linear_svi", "scaled_monotone")]
    problem = experiment_doc()["problem"]
    cases += [("experiment", experiment_doc(problem=dict(problem, set=fset)), named)
              for fset, named in [
                  ({"variant": "box", "lower": [0, 0, 0]},
                   "missing keys ['upper'] in variant 'box'"),
                  ({"variant": "ball", "center": [0, 0, 0], "radius": -1},
                   "ball radius must be positive and finite, got -1.0")]]
    cases += [("solve", experiment_doc(solver=dict(solver, max_iterations=0)),
               "max_iterations must be positive, got 0"),
              ("experiment", experiment_doc(solver=dict(solver, coordination="bogus")),
               "coordination 'bogus' is not")]
    # a value of the wrong JSON type names its key rather than ending in a
    # traceback or being cast (bool("false") is True, int(2.7) is 2)
    cases += [("experiment", experiment_doc(solver=dict(solver, **{key: value})), named)
              for key, value, named in [
                  ("stepsize", "big", "stepsize must be a number or a list of numbers"),
                  ("stepsize", [], "nonempty sequence"),
                  ("schedule", 5, "schedule must be an object, got 5"),
                  ("diagnostics", "false", "diagnostics must be true or false"),
                  ("max_iterations", 2.7, "max_iterations must be an integer"),
                  ("max_iterations", True, "max_iterations must be an integer")]]
    cases += [("solve", experiment_doc(problem=dict(problem, **{key: value})),
               f"{key} must be an integer in problem kind 'strongly_monotone'")
              for key, value in (("n", 2.5), ("seed", "a"))]
    cases += [("experiment", experiment_doc(**{key: value}), f"{key} must be")
              for key, value in (("x0", "abc"), ("epsilon", "x"), ("replications", 2.5))]
    cases += [("experiment", experiment_doc(problem=dict(problem, set={
        "variant": "ball", "center": [0, 0, 0], "radius": "wide"})),
        "radius must be a number in variant 'ball', got 'wide'"),
              ("probe", dict(fejer, replications=2.5),
               "replications must be an integer in fejer_audit params")]
    # values no constructor parameter holds: a problem's set or its parts,
    # the merits section, a generator's choice of set and the constants eps
    cases += [("experiment", experiment_doc(problem=dict(problem, set=fset)), named)
              for fset, named in [
                  (5, "set must be an object in problem kind 'strongly_monotone', got 5"),
                  ({"variant": "cartesian", "sizes": [1, 2], "parts": 5},
                   "parts must be a list in variant 'cartesian', got 5"),
                  ({"variant": "cartesian", "sizes": 3, "parts": []},
                   "sizes must be a list of integers in variant 'cartesian'"),
                  ({"variant": "cartesian", "sizes": [3], "parts": [5]},
                   "each part must be an object in variant 'cartesian', got 5")]]
    cases += [("experiment", experiment_doc(merits=5),
               "merits must be an object in experiment config, got 5"),
              ("solve", experiment_doc(problem={"kind": "linear_svi", "n": 3,
                                                "feasible": "box"}),
               "feasible must be one of ['orthant', 'whole_space'], got 'box'"),
              ("constants", dict(CONSTANTS_DOC, eps="x"),
               "eps must be a number in constants document, got 'x'"),
              ("constants", dict(CONSTANTS_DOC, run_summary=5),
               "run_summary must be a string or null in constants document")]
    # threads is read and ignored, but only as an integer
    cases += [("experiment", experiment_doc(threads=value),
               f"threads must be an integer or null in experiment config, got {value!r}")
              for value in ("x", [1], True)]
    # a kind or a variant that is not a string names its key, as does a block
    # that holds no coordinate
    cases += [("probe", {"kind": ["error_decay"]},
               "kind must be a string in probe config, got ['error_decay']"),
              ("experiment", experiment_doc(problem=dict(problem, kind=["linear_svi"])),
               "kind must be a string in problem, got ['linear_svi']"),
              ("experiment", experiment_doc(problem=dict(problem, set={"variant": {"a": 1}})),
               "variant must be a string in problem kind 'strongly_monotone', got {'a': 1}"),
              ("experiment", experiment_doc(problem=dict(problem, blocks=[3, 0])),
               "blocks (3, 0) must each hold at least one coordinate")]
    return cases


SCHEDULE_DOC = {"theta": 1, "mu": 3, "a": 0, "b": 1}
SECTIONS = {  # section: (builder, complete document, required keys)
    "whole_space": (feasible_set_from_config, {"variant": "whole_space", "dim": 2}, ()),
    "nonnegative_orthant": (feasible_set_from_config,
                            {"variant": "nonnegative_orthant", "dim": 2}, ()),
    "box": (feasible_set_from_config, {"variant": "box", "lower": [0], "upper": [1]},
            ("lower", "upper")),
    "ball": (feasible_set_from_config, {"variant": "ball", "center": [0], "radius": 1},
             ("center", "radius")),
    "simplex": (feasible_set_from_config, {"variant": "simplex", "dim": 2, "scale": 2},
                ("dim",)),
    "halfspace": (feasible_set_from_config, {"variant": "halfspace", "a": [1], "b": 0},
                  ("a", "b")),
    "affine": (feasible_set_from_config, {"variant": "affine", "A": [[1, 1]], "b": [1]},
               ("A", "b")),
    "cartesian": (feasible_set_from_config,
                  {"variant": "cartesian", "sizes": [1, 1],
                   "parts": [{"variant": "box", "lower": [0], "upper": [1]},
                             {"variant": "whole_space"}]},
                  ("parts", "sizes")),
    "schedule": (SampleSchedule.from_config, SCHEDULE_DOC, ("theta", "mu")),
    "solver": (solver_config_from_config,
               {"stepsize": 0.1, "schedule": SCHEDULE_DOC, "max_iterations": 5,
                "coordination": "distributed", "master_seed": 3, "diagnostics": True,
                "residual_floor": 0.0},
               ("stepsize", "schedule", "max_iterations")),
    "constants": (constants_inputs_from_config,
                  dict(CONSTANTS_DOC, p=4.0, c2=1.0, cp=1.0, cq=1.0, c_remainder=100.0,
                       m=2, shared_samples=False, S=1.0, J=2.0),
                  ("L", "alpha", "sigma", "schedule")),
}


class TestConfigParsing:
    @pytest.mark.parametrize("section", sorted(SECTIONS))
    def test_section_keys_are_constructor_fields(self, section):
        """A section builds from its full document and from its required
        keys alone; dropping a required key, or adding an unknown one,
        raises ConfigError naming that key."""
        build, doc, required = SECTIONS[section]
        build(doc)
        build({k: v for k, v in doc.items() if k in required or k == "variant"})
        for key in required:
            with pytest.raises(ConfigError, match=rf"missing keys \['{key}'\]"):
                build(without(doc, key))
        with pytest.raises(ConfigError, match=r"unknown keys \['bogus'\]"):
            build(dict(doc, bogus=1))

    def test_round_trip_and_hash(self):
        doc = experiment_doc()
        cfg = experiment_from_config(doc)
        assert cfg.replications == 4
        assert cfg.solver.max_iterations == 40
        assert cfg.config_hash == config_hash(doc)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            experiment_from_config(experiment_doc(unknown_field=1))

    def test_residual_alpha_rejected(self):
        # r^2 is always taken at the run's stepsize: the key was never read
        with pytest.raises(ConfigError, match="residual_alpha"):
            experiment_from_config(experiment_doc(merits={"residual_alpha": 0.1}))

    def test_unknown_problem_key(self):
        doc = experiment_doc()
        doc["problem"]["bogus"] = 2
        with pytest.raises(ConfigError):
            experiment_from_config(doc)

    def test_unknown_solver_key(self):
        with pytest.raises(ConfigError):
            solver_config_from_config({"stepsize": 0.1, "schedule": {"theta": 1, "mu": 3},
                                       "max_iterations": 5, "oops": True})

    def test_schema_version_required(self):
        doc = experiment_doc()
        doc["schema_version"] = 2
        with pytest.raises(ConfigError):
            experiment_from_config(doc)

    def test_problem_kinds_and_blocks(self):
        p = problem_from_config({"kind": "linear_svi", "n": 4, "seed": 1,
                                 "noise_scale": 0.2, "blocks": [2, 2]})
        assert p.n_blocks == 2
        with pytest.raises(ConfigError):
            problem_from_config({"kind": "mystery"})

    def test_window_bounds_checked(self):
        with pytest.raises(ConfigError):
            experiment_from_config(experiment_doc(rate_fit_window=[5, 400]))


class TestRunExperiment:
    def test_single_replication_matches_direct_run(self):
        doc = experiment_doc(replications=1)
        cfg = experiment_from_config(doc)
        res = run_experiment(cfg)
        trace = run(validate(cfg.problem, cfg.solver), replication=0, x0=cfg.x0)
        np.testing.assert_allclose(res.mean_r2, trace.r2)
        assert np.all(res.stderr_r2 == 0.0)
        assert res.merit_mode == "exact"

    def test_ensemble_validates_and_tabulates_once(self, monkeypatch):
        from stochvi import harness
        from stochvi.sampling import SampleSchedule

        counts = {"validate": 0, "sizes_upto": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "validate", counted("validate", harness.validate))
        monkeypatch.setattr(SampleSchedule, "sizes_upto",
                            counted("sizes_upto", SampleSchedule.sizes_upto))
        res = run_experiment(experiment_from_config(experiment_doc(replications=5)))
        assert len(res.traces) == 5
        assert counts == {"validate": 1, "sizes_upto": 1}

    def test_calls_column_matches_schedule_sum(self):
        cfg = experiment_from_config(experiment_doc(replications=2))
        res = run_experiment(cfg)
        want = 0
        for k in range(10):
            want += 2 * math.ceil((k + 3) * math.log(k + 3) ** 2)
        assert res.cum_calls[10] == want

    def test_calls_column_is_the_plan_when_replications_stop_apart(self, tmp_path):
        """Replications that stop early at different k: the calls column is
        the plan's schedule, not replication 0's held at its last value."""
        doc = experiment_doc(
            problem={"kind": "strongly_monotone", "n": 2, "seed": 5, "noise_scale": 0.5},
            solver={"stepsize": 0.25, "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1},
                    "max_iterations": 60, "master_seed": 7, "residual_floor": 3e-5},
            replications=8, x0=None, rate_fit_window=None)
        cfg = experiment_from_config(doc)
        res = run_experiment(cfg)
        steps = [t.n_steps for t in res.traces]
        assert steps[0] < max(steps) < 60
        want = validate(cfg.problem, cfg.solver).cum_calls
        assert res.cum_calls.tolist() == want.tolist()
        res.to_csv(tmp_path / "e.csv")
        rows = (tmp_path / "e.csv").read_text().splitlines()
        assert [int(r.rsplit(",", 1)[1]) for r in rows[1:]] == want.tolist()

    @pytest.mark.parametrize("coordination", ["centralized", "distributed"])
    def test_statistics_equal_the_carry_forward_reference(self, coordination):
        """Rows stopping at different k, with dist2 and the d-gap on: the
        column means of the ensemble's arrays equal, bit for bit, the
        traces held at their final values and stacked one by one."""
        doc = experiment_doc(
            problem={"kind": "strongly_monotone", "n": 5, "seed": 3, "noise_scale": 1.0,
                     "center": [0.0] * 5, "blocks": [2, 2, 1]},
            solver={"stepsize": 0.25, "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1},
                    "max_iterations": 30, "coordination": coordination, "master_seed": 1,
                    "residual_floor": 1e-4},
            replications=8, x0=[1.0] * 5, merits={"dgap_a": 1.0, "dgap_b": 2.0},
            rate_fit_window=None)
        cfg = experiment_from_config(doc)
        res = run_experiment(cfg)
        steps = [t.n_steps for t in res.traces]
        assert min(steps) < 30 == max(steps) and len(set(steps)) > 3
        want = carry_forward_statistics_reference(
            res.traces, cfg.problem.mean_operator, cfg.problem.feasible_set, 30, (1.0, 2.0))
        got = (res.mean_r2, res.stderr_r2, res.mean_dist2, res.mean_dgap)
        for name, a, b in zip(("mean_r2", "stderr_r2", "mean_dist2", "mean_dgap"), got, want):
            assert a.shape == (31,) and a.tobytes() == b.tobytes(), name

    def test_k_eps_monotone_in_eps(self):
        cfg = experiment_from_config(experiment_doc(replications=3))
        res = run_experiment(cfg)
        ks = [res.k_eps_for(eps) for eps in (1e-2, 1e-3, 2e-4)]
        assert all(k is not None for k in ks)
        assert ks[0] <= ks[1] <= ks[2]

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        """A ``threads`` key is accepted and ignored: it changes no byte."""
        doc = experiment_doc(replications=6)
        res1 = run_experiment(experiment_from_config(doc))
        doc2 = experiment_doc(replications=6, threads=3)
        res2 = run_experiment(experiment_from_config(doc2))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        res1.to_csv(p1)
        res2.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_slope_fit_recovers_power_law(self):
        ks = np.arange(0, 200)
        vals = np.zeros(200)
        vals[1:] = 3.0 * ks[1:] ** -1.25
        slope, intercept = fit_loglog_slope(vals, (10, 199))
        assert slope == pytest.approx(-1.25, abs=1e-9)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-9)

    def test_dgap_tracking(self):
        doc = experiment_doc(replications=1,
                             merits={"dgap_a": 1.0, "dgap_b": 2.0})
        res = run_experiment(experiment_from_config(doc))
        assert res.mean_dgap is not None
        assert np.all(res.mean_dgap >= -1e-10)
        # d-gap decays along the run like the residual does
        assert res.mean_dgap[-1] < res.mean_dgap[0]

    def test_estimated_merit_mode_flagged(self):
        p = gen_constant_noise(sigma=0.5)
        object.__setattr__(p, "mean_operator", None)
        op, estimated = effective_mean_operator(p, n_samples=2000)
        assert estimated
        v1, v2 = op(np.zeros(1)), op(np.zeros(1))
        assert v1 == v2  # frozen stream: surrogate is deterministic
        assert abs(v1[0]) < 0.1


class TestProbes:
    def test_error_decay_probe_files(self, tmp_path):
        verdict = probe("error_decay", {
            "problem": {"kind": "constant_noise", "sigma": 1.0},
            "x": [0.0], "N_grid": [1, 4, 16], "replications": 400,
        }, tmp_path)
        assert verdict["passed"]
        assert (tmp_path / "error_decay.csv").exists()
        assert json.loads((tmp_path / "error_decay_verdict.json").read_text())["passed"]

    def test_martingale_probe_files(self, tmp_path):
        verdict = probe("martingale", {
            "problem": {"kind": "linear_svi", "n": 3, "seed": 2, "noise_scale": 0.4},
            "solver": {"stepsize": 0.1, "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1},
                       "max_iterations": 1},
            "x": [1.0, 0.5, 0.2], "replications": 2000,
        }, tmp_path)
        assert verdict["passed"]

    def test_variance_scaling_zero_noise(self, tmp_path):
        verdict = probe("variance_scaling", {
            "K_list": [10, 20], "sigma": 0.0, "replications": 50,
        }, tmp_path)
        assert verdict["passed"]

    def test_fejer_audit_probe(self, tmp_path):
        verdict = probe("fejer_audit", {
            "problem": {"kind": "strongly_monotone", "n": 3, "seed": 5,
                        "noise_scale": 0.5, "center": [0.0, 0.0, 0.0]},
            "solver": {"stepsize": 0.25, "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1},
                       "max_iterations": 20, "diagnostics": True},
            "replications": 5, "x0": [1.0, 1.0, 1.0],
        }, tmp_path)
        assert verdict["passed"] and verdict["violations"] == 0

    def test_pm_check_negative_control_fails_as_designed(self, tmp_path):
        verdict = probe("pm_check", {
            "problem": {"kind": "negative_control", "n": 1},
            "samples": 400,
        }, tmp_path)
        assert not verdict["passed"]

    @pytest.mark.parametrize("seed", [3, 8, 143, 183, 189])
    def test_error_decay_band_holds_both_rows_errors(self, tmp_path, seed):
        # exact 1/N law; a band on row j's stderr alone rejected these seeds
        params = dict(TestCli.PROBE_DOCS["error_decay"], master_seed=seed)
        assert probe("error_decay", params, tmp_path)["passed"]

    def test_error_decay_fails_without_1_over_n_decay(self, tmp_path, monkeypatch):
        """One noise row repeated across the batch keeps E||eps_N||^2 at
        sigma^2, so N E||eps_N||^2 grows like N and the probe must fail."""
        def repeated_noise(rng, x, size):
            return np.broadcast_to(rng.standard_normal((1, 1)), (size, 1)).copy()

        p = replace(gen_constant_noise(sigma=1.0), oracle=repeated_noise)
        monkeypatch.setattr("stochvi.harness.problem_from_config", lambda cfg: p)
        params = dict(TestCli.PROBE_DOCS["error_decay"], N_grid=[1, 4, 16], replications=200)
        assert not probe("error_decay", params, tmp_path)["passed"]

    def test_unknown_probe_kind(self, tmp_path):
        with pytest.raises(ConfigError):
            probe("nope", {}, tmp_path)

    def test_fejer_audit_needs_a_path(self, tmp_path):
        params = dict(TestCli.PROBE_DOCS["fejer_audit"], replications=0)
        with pytest.raises(InvalidParameters, match="1 replication"):
            probe("fejer_audit", params, tmp_path)

    @pytest.mark.parametrize("kind", sorted(PROBES))
    def test_unknown_param_rejected(self, tmp_path, kind):
        params = dict(TestCli.PROBE_DOCS[kind], bogus=1)
        with pytest.raises(ConfigError, match=f"'bogus'.*{kind} params"):
            probe(kind, params, tmp_path)

    REQUIRED = [("error_decay", "problem"), ("error_decay", "x"), ("error_decay", "N_grid"),
                ("error_decay", "replications"), ("martingale", "problem"),
                ("martingale", "solver"), ("martingale", "x"), ("martingale", "replications"),
                ("variance_scaling", "K_list"), ("variance_scaling", "sigma"),
                ("variance_scaling", "replications"), ("fejer_audit", "problem"),
                ("fejer_audit", "solver"), ("fejer_audit", "replications"),
                ("pm_check", "problem")]

    @pytest.mark.parametrize("kind,key", REQUIRED)
    def test_missing_required_param_rejected(self, tmp_path, kind, key):
        params = {k: v for k, v in TestCli.PROBE_DOCS[kind].items() if k != key}
        with pytest.raises(ConfigError, match=f"missing keys \\['{key}'\\] in {kind} params"):
            probe(kind, params, tmp_path)

    @pytest.mark.parametrize("kind,key", [("error_decay", "N_grid"),
                                          ("variance_scaling", "K_list")])
    def test_empty_grid_rejected(self, tmp_path, kind, key):
        # variance_scaling with no horizons used to pass vacuously
        with pytest.raises(ConfigError, match=f"{key} must not be empty"):
            probe(kind, dict(TestCli.PROBE_DOCS[kind], **{key: []}), tmp_path)


class TestConstantsCmd:
    def test_minimal_noiseless_inputs(self, tmp_path):
        doc = constants_cmd({
            "L": 1.0, "alpha": 0.25, "sigma": 0.0,
            "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1},
            "phi": 0.5, "d0": 1.0,
        }, eps=1e-4, out_dir=tmp_path)
        rho = 1.0 - 6.0 * 0.25 ** 2
        assert doc["bounds"]["rate_Q_inf"] == pytest.approx(2.0 / rho)
        assert (tmp_path / "constants_report.json").exists()

    def test_bounds_nest_one_record_per_family(self):
        doc = constants_cmd({
            "L": 1.0, "alpha": 0.25, "sigma": 1.0, "J": 2.0,
            "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1},
        }, eps=1e-4)
        fields = {"rate_Q", "log_arg_P", "complexity_I", "complexity_bound",
                  "tail_coeff_A", "tail_coeff_B"}
        families = {k for k, v in doc["bounds"].items() if isinstance(v, dict)}
        assert families == {"base", "uniform", "network"}
        assert all(doc["bounds"][f].keys() == fields for f in families)
        names = [line.split()[0] for line in format_constants_table(doc).splitlines()[1:]]
        assert sorted(n for n in names if "." in n) == sorted(
            f"{family}.{field}" for family in families for field in fields)

    def test_phi_out_of_range_rejected(self):
        from stochvi.errors import InvalidInputs

        with pytest.raises(InvalidInputs, match="0.618"):
            constants_cmd({
                "L": 1.0, "alpha": 0.25, "sigma": 0.0,
                "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1},
                "phi": 0.7, "d0": 1.0,
            }, eps=1e-4)

    def test_run_summary_comparison(self):
        doc_exp = experiment_doc(replications=3)
        res = run_experiment(experiment_from_config(doc_exp))
        summary = res.summary()
        doc = constants_cmd({
            "L": 1.0, "alpha": 0.25, "sigma": math.sqrt(3.0) * 0.5,
            "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1},
            "phi": 0.5, "d0": math.sqrt(3.0),
        }, eps=1e-4, run_summary=summary)
        assert doc["empirical_check"]["passed"]

    def test_run_summary_fields_are_the_summary_keys(self):
        summary = run_experiment(experiment_from_config(experiment_doc(replications=2)))\
            .summary()
        assert set(signature(_run_summary).parameters) == set(summary)

    def test_run_summary_without_window(self):
        """A summary whose window is null, as an experiment without
        ``rate_fit_window`` writes, compares from k = 1 as one without the key."""
        summary = run_experiment(experiment_from_config(
            experiment_doc(replications=3, rate_fit_window=None))).summary()
        assert summary["rate_fit_window"] is None
        inputs = dict(CONSTANTS_DOC, sigma=math.sqrt(3.0) * 0.5, d0=math.sqrt(3.0))
        doc = constants_cmd(inputs, eps=1e-4, run_summary=summary)
        assert doc["empirical_check"]["passed"]
        assert doc == constants_cmd(inputs, eps=1e-4, run_summary=without(
            summary, "rate_fit_window"))


class TestCli:
    def write(self, path, doc):
        path.write_text(json.dumps(doc))
        return str(path)

    def test_solve_and_experiment(self, tmp_path, capsys):
        cfg = self.write(tmp_path / "cfg.json", experiment_doc())
        assert cli_main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
        assert (tmp_path / "s" / "trace.csv").exists()
        assert cli_main(["experiment", "--config", cfg, "--out", str(tmp_path / "e"),
                         "--replications", "2"]) == 0
        summary = json.loads((tmp_path / "e" / "experiment_summary.json").read_text())
        assert summary["replications"] == 2
        assert "slope" in summary

    def test_probe_cli(self, tmp_path):
        cfg = self.write(tmp_path / "p.json", {
            "kind": "variance_scaling", "K_list": [10], "sigma": 0.5,
            "replications": 500,
        })
        assert cli_main(["probe", "--config", cfg, "--out", str(tmp_path / "pr")]) == 0

    PROBE_DOCS = {
        "error_decay": {"problem": {"kind": "constant_noise", "sigma": 1.0},
                        "x": [0.0], "N_grid": [1, 4], "replications": 50},
        "martingale": {"problem": {"kind": "linear_svi", "n": 3, "seed": 2,
                                   "noise_scale": 0.4},
                       "solver": {"stepsize": 0.1, "max_iterations": 1,
                                  "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1}},
                       "x": [1.0, 0.5, 0.2], "replications": 50},
        "variance_scaling": {"K_list": [10], "sigma": 0.5, "replications": 50},
        "fejer_audit": {"problem": {"kind": "strongly_monotone", "n": 3, "seed": 5,
                                    "noise_scale": 0.5, "center": [0.0, 0.0, 0.0]},
                        "solver": {"stepsize": 0.25, "max_iterations": 10,
                                   "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1},
                                   "diagnostics": True},
                        "replications": 2, "x0": [1.0, 1.0, 1.0]},
        "pm_check": {"problem": {"kind": "negative_control", "n": 1}, "samples": 50},
    }

    @pytest.mark.parametrize("kind", sorted(PROBE_DOCS))
    def test_probe_cli_seed(self, tmp_path, kind):
        """--seed reaches the seed field each probe kind reads."""
        cfg = self.write(tmp_path / "p.json", dict(self.PROBE_DOCS[kind], kind=kind))
        csvs = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            code = cli_main(["probe", "--config", cfg, "--out", str(out), "--seed", seed])
            assert code == (3 if kind == "pm_check" else 0)  # pm_check's control fails
            csvs.append((out / f"{kind}.csv").read_text())
        if kind != "fejer_audit":  # its rows hold no draw-dependent value
            assert csvs[0] != csvs[1]

    @pytest.mark.parametrize("fset", [
        {"variant": "box", "lower": [-1.0, 0.0], "upper": [1.0, math.inf]},
        {"variant": "cartesian", "sizes": [1, 1],
         "parts": [{"variant": "box", "lower": [-1.0], "upper": [1.0]},
                   {"variant": "box", "lower": [0.0], "upper": [math.inf]}]},
    ], ids=["box", "cartesian"])
    def test_pm_check_on_an_unbounded_box_reaches_a_verdict(self, tmp_path, capsys, fset):
        cfg = self.write(tmp_path / "p.json", {
            "kind": "pm_check", "samples": 200,
            "problem": {"kind": "strongly_monotone", "n": 2, "seed": 0, "noise_scale": 1.0,
                        "center": [0.0, 0.5], "set": fset}})
        assert cli_main(["probe", "--config", cfg, "--out", str(tmp_path / "pr")]) == 0
        assert "pm_check: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("command,doc,seed", [
        ("solve", experiment_doc(), 2 ** 63),
        ("experiment", experiment_doc(), 99999999999999999999),
        ("experiment", experiment_doc(), -2 ** 63 - 1),
        ("probe", dict(PROBE_DOCS["error_decay"], kind="error_decay"), 2 ** 63),
        # the first horizon runs on master_seed, the second on master_seed + 1
        ("probe", dict(PROBE_DOCS["variance_scaling"], kind="variance_scaling",
                       K_list=[10, 20]), 2 ** 63 - 1),
    ], ids=["solve", "experiment", "experiment_negative", "error_decay", "variance_scaling"])
    def test_seed_outside_int64_exits_2(self, tmp_path, capsys, command, doc, seed):
        cfg = self.write(tmp_path / "c.json", doc)
        code = cli_main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                         "--seed", str(seed)])
        assert code == 2
        assert "outside the signed 64-bit range" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("epsilon", -1.0), ("epsilon", 0.0), ("x0", [math.nan, 0.0, 0.0])])
    def test_value_outside_its_domain_exits_2(self, tmp_path, capsys, key, value):
        """A non-positive epsilon and a non-finite start point exit 2 naming
        their key before the run draws anything."""
        cfg = self.write(tmp_path / "c.json", experiment_doc(**{key: value}))
        assert cli_main(["experiment", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and "oracle" not in err

    @pytest.mark.parametrize("command,doc,named",
                             incomplete_documents(PROBE_DOCS["fejer_audit"]))
    def test_incomplete_documents_exit_2(self, tmp_path, capsys, command, doc, named):
        cfg = self.write(tmp_path / "c.json", doc)
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "experiment", "probe", "constants"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, command):
        missing, malformed = tmp_path / "missing.json", tmp_path / "bad.json"
        malformed.write_text('{"kind": ')
        for path in (missing, malformed):
            assert cli_main([command, "--config", str(path), "--out",
                             str(tmp_path / "o")]) == 2
            assert f"error: cannot read {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        ("solve", []), ("solve", ["--seed", "3"]),
        ("experiment", []), ("experiment", ["--seed", "3", "--replications", "2"]),
        ("probe", []), ("probe", ["--seed", "3", "--replications", "2"]),
        ("constants", []),
    ])
    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys, command, flags):
        cfg = self.write(tmp_path / "c.json", [1, 2])
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]
                        + flags) == 2
        assert f"error: config must be an object, got [1, 2] (in {cfg})" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc", [
        ("solve", experiment_doc(solver=[1])),
        ("experiment", experiment_doc(solver=[1])),
        ("probe", dict(PROBE_DOCS["martingale"], kind="martingale", solver=[1])),
        ("probe", dict(PROBE_DOCS["fejer_audit"], kind="fejer_audit", solver="x")),
    ])
    def test_seed_into_a_section_that_is_not_an_object_exits_2(self, tmp_path, capsys,
                                                                command, doc):
        """With or without --seed the document exits 2 naming the section."""
        cfg = self.write(tmp_path / "c.json", doc)
        for flags in ([], ["--seed", "3"]):
            assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "o")]
                            + flags) == 2
            assert "error: solver must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["martingale", "error_decay"])
    @pytest.mark.parametrize("x", [[1.0, 2.0, 3.0, 4.0], 1.0])
    def test_probe_point_of_the_wrong_shape_exits_2(self, tmp_path, capsys, kind, x):
        cfg = self.write(tmp_path / "p.json", dict(self.PROBE_DOCS[kind], kind=kind, x=x))
        assert cli_main(["probe", "--config", cfg, "--out", str(tmp_path / "pr")]) == 2
        assert "error: x must have shape" in capsys.readouterr().err

    def test_unreadable_run_summary_exits_2(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text("[1, 2")
        for name in ("bad.json", "missing.json"):
            cfg = self.write(tmp_path / "c.json", dict(CONSTANTS_DOC, run_summary=name))
            assert cli_main(["constants", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert f"error: cannot read {tmp_path / name}" in capsys.readouterr().err

    @pytest.mark.parametrize("summary, named", [
        ([1, 2], "run summary must be an object, got [1, 2]"),
        ({"mean_r2": "abc"}, "mean_r2 must be a list of numbers or null in run summary"),
        ({"mean_r2": [1.0, "x"]}, "mean_r2 must be a list of numbers"),
        ({"rate_fit_window": [2.5, 9]}, "rate_fit_window must be a list of integers"),
        ({"mean_r2": [1.0], "extra": 1}, "unknown keys ['extra'] in run summary"),
    ])
    def test_malformed_run_summary_exits_2(self, tmp_path, capsys, summary, named):
        """A summary that parses but has the wrong shape exits 2 naming the
        key, as a malformed config does."""
        (tmp_path / "summary.json").write_text(json.dumps(summary))
        cfg = self.write(tmp_path / "c.json", dict(CONSTANTS_DOC, run_summary="summary.json"))
        assert cli_main(["constants", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err

    def test_incomplete_probe_documents_exit_2(self, tmp_path, capsys):
        no_x = without(self.PROBE_DOCS["martingale"], "x")
        no_grid = dict(self.PROBE_DOCS["error_decay"], N_grid=[])
        empty_batch = dict(self.PROBE_DOCS["error_decay"], N_grid=[0])
        for kind, doc in [("martingale", no_x), ("error_decay", no_grid),
                          ("error_decay", empty_batch)]:
            cfg = self.write(tmp_path / "p.json", dict(doc, kind=kind))
            assert cli_main(["probe", "--config", cfg, "--out", str(tmp_path / "pr")]) == 2
            assert "error:" in capsys.readouterr().err

    def test_martingale_probe_rejects_stepsize_above_cap(self, tmp_path, capsys):
        # the same solver section exits 2 under fejer_audit too
        cfg = self.write(tmp_path / "p.json", {
            "kind": "martingale",
            "problem": {"kind": "constant_noise", "sigma": 1.0, "n": 1},
            "solver": {"stepsize": 0.9, "schedule": {"theta": 1, "mu": 3},
                       "max_iterations": 1},
            "x": [0.7], "replications": 50})
        assert cli_main(["probe", "--config", cfg, "--out", str(tmp_path / "pr")]) == 2
        assert "must be < 1/(sqrt(6) L)" in capsys.readouterr().err

    def test_probe_replications_skips_kinds_without_it(self, tmp_path):
        # pm_check reads no replication count: the negative control still
        # reaches its verdict (exit 3) instead of a config error (exit 2)
        cfg = self.write(tmp_path / "p.json", dict(self.PROBE_DOCS["pm_check"],
                                                  kind="pm_check"))
        assert cli_main(["probe", "--config", cfg, "--out", str(tmp_path / "pr"),
                         "--replications", "5"]) == 3

    @pytest.mark.parametrize("argv", [["constants", "--seed", "1"],
                                      ["solve", "--replications", "2"],
                                      ["experiment", "--threads", "2"]])
    def test_flags_a_subcommand_does_not_read_are_rejected(self, tmp_path, argv):
        cfg = self.write(tmp_path / "c.json", {})
        with pytest.raises(SystemExit) as exc:
            cli_main(argv[:1] + ["--config", cfg] + argv[1:])
        assert exc.value.code == 2

    def test_option_sets_pinned(self):
        """Each subcommand offers only the flags its handler reads."""
        subs = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        options = {name: {o for o in sub._option_string_actions if o.startswith("--")}
                   for name, sub in subs.choices.items()}
        common = {"--help", "--config", "--out"}
        assert options == {"solve": common | {"--seed"},
                           "experiment": common | {"--seed", "--replications"},
                           "probe": common | {"--seed", "--replications"},
                           "constants": common}

    def test_constants_cli(self, tmp_path, capsys):
        cfg = self.write(tmp_path / "c.json", {
            "eps": 1e-4, "L": 1.0, "alpha": 0.25, "sigma": 0.0,
            "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1},
            "phi": 0.5, "d0": 1.0,
        })
        assert cli_main(["constants", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "rate_Q_inf" in out

    @pytest.mark.parametrize("key", ["op_bound_L", "op_bound_M"])
    def test_constants_key_no_calculator_reads_is_rejected(self, tmp_path, capsys, key):
        doc = dict(CONSTANTS_DOC, **{key: 3.0})
        with pytest.raises(ConfigError, match=key):
            constants_cmd(doc, 1e-4)
        cfg = self.write(tmp_path / "c.json", doc)
        assert cli_main(["constants", "--config", cfg, "--out", str(tmp_path / "c")]) == 2
        assert key in capsys.readouterr().err

    def test_error_reported_cleanly(self, tmp_path, capsys):
        cfg = self.write(tmp_path / "bad.json", experiment_doc(schema_version=9))
        assert cli_main(["experiment", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err
