"""Misuse fails loudly: one table of bad inputs to the public entry points.

Each case is a call that must raise a typed ``StochviError`` whose message
names the fault, or an experiment document (or a ``(command, document)``
pair) on which ``stochvi experiment`` (or the command) must exit 2 with an
``error:`` line naming it and write nothing, or, for a document it must
take, exit 0 with nothing on stderr.  None may end in NaN output,
an untyped exception or a message about a symptom elsewhere (a feasible
set with a NaN parameter used to fail the mean-operator row check, and a
schedule exponent of NaN the tail check).
"""

import contextlib
import io
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochvi.baselines import variance_scaling_probe
from stochvi.cli import main as cli_main
from stochvi.constants import ConstantsInputs, lp_bound_constants, rate_and_complexity_bounds
from stochvi.core import SolverConfig, validate
from stochvi.errors import (
    BlockMismatch,
    ConfigError,
    DimensionMismatch,
    InvalidInputs,
    InvalidParameters,
    InvalidSchedule,
    NoKnownSolutions,
    NoMeanOperator,
)
from stochvi.merit import regularized_gap
from stochvi.problems import gen_strongly_monotone
from stochvi.projection import (
    AffineSubspace,
    Ball,
    Box,
    CartesianProduct,
    Halfspace,
    Simplex,
    WholeSpace,
    feasible_set_from_config,
)
from stochvi.sampling import AgentSchedule, SampleSchedule, network_exponents
from stochvi.solver import martingale_probe, run

NAN, INF = math.nan, math.inf
SCHEDULE = SampleSchedule.uniform(1, 3, 0, 1)


def problem(**fields):
    """A two-dimensional strongly monotone problem with ``fields`` replaced."""
    return replace(gen_strongly_monotone(2, seed=0, noise_scale=0.5), **fields)


def plan(**fields):
    """A two-step plan of ``problem(**fields)``."""
    return validate(problem(**fields),
                    SolverConfig(stepsize=0.25, schedule=SCHEDULE, max_iterations=2))


def constants_inputs(**fields):
    return ConstantsInputs(**{"L": 1.0, "alpha": 0.1, "sigma": 1.0, "schedule": SCHEDULE,
                              **fields})


def constants_document(top=(), **schedule):
    """A constants document at the criterion-1 schedule with ``schedule``
    entries and the top-level entries ``top`` replaced."""
    return {"L": 1, "alpha": 0.25, "sigma": 1, "J": 1, "eps": 1e-3, **dict(top),
            "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1, **schedule}}


def experiment(fset=None, kind="strongly_monotone", top=(), **schedule):
    """A three-dimensional experiment of ``kind`` on ``fset``, with the
    top-level entries ``top``."""
    problem = {"kind": kind, "n": 3, "seed": 0, "noise_scale": 0.5}
    if kind == "strongly_monotone":
        problem["center"] = [0.0, 0.0, 0.0]
    if fset is not None:
        problem["set"] = fset
    return {"schema_version": 1, "problem": problem, **dict(top),
            "solver": {"stepsize": 0.25, "max_iterations": 5,
                       "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1, **schedule}}}


CASES = {  # name: (call or experiment document, error or exit code, text the message holds,
    # or at exit 0 text the report holds)
    "affine_a_of_rank_1_2x3": (lambda: AffineSubspace([[1, 2, 3], [2, 4, 6]], [0, 0]),
                                InvalidParameters, "rank 1"),
    "affine_a_of_rank_1_cholesky_passes_on_roundoff": (
        lambda: AffineSubspace([[1, 1], [2, 2]], [0, 0]), InvalidParameters, "rank 1"),
    "affine_a_with_nan": (lambda: AffineSubspace([[1, NAN]], [0]), InvalidParameters,
                          "AffineSubspace A must be finite"),
    "affine_b_infinite": (lambda: AffineSubspace([[1, 0]], [INF]), InvalidParameters,
                          "AffineSubspace b must be finite"),
    "box_lower_nan": (lambda: Box([NAN, 0], [1, 1]), InvalidParameters,
                      "Box lower must be free of NaN"),
    "box_upper_nan": (lambda: Box([0, 0], [1, NAN]), InvalidParameters,
                      "Box upper must be free of NaN"),
    "ball_center_nan": (lambda: Ball([NAN, 0], 1.0), InvalidParameters,
                        "Ball center must be finite"),
    "ball_center_infinite": (lambda: Ball([0, -INF], 1.0), InvalidParameters,
                             "Ball center must be finite"),
    "halfspace_a_nan": (lambda: Halfspace([1, NAN], 0.0), InvalidParameters,
                        "Halfspace a must be finite"),
    "halfspace_b_nan": (lambda: Halfspace([1, 0], NAN), InvalidParameters,
                        "Halfspace b must be finite"),
    "halfspace_b_infinite": (lambda: Halfspace([1, 0], INF), InvalidParameters,
                             "Halfspace b must be finite"),
    "simplex_scale_infinite": (lambda: Simplex(2, INF), InvalidParameters,
                               "scale must be positive and finite"),
    "simplex_dim_0": (lambda: Simplex(0), InvalidParameters, "dim must be at least 1"),
    "cartesian_size_0": (lambda: CartesianProduct((WholeSpace(), WholeSpace()), (0, 2)),
                         BlockMismatch, "at least 1"),
    "cartesian_size_negative": (lambda: CartesianProduct((WholeSpace(), WholeSpace()), (-1, 3)),
                                BlockMismatch, "at least 1"),
    "schedule_theta_infinite": (lambda: AgentSchedule(INF, 3), InvalidSchedule,
                                "theta must be finite"),
    "schedule_mu_infinite": (lambda: AgentSchedule(1, INF), InvalidSchedule,
                             "mu must be finite"),
    "schedule_a_nan": (lambda: AgentSchedule(1, 3, NAN, 1), InvalidSchedule, "a must be finite"),
    "schedule_b_nan": (lambda: AgentSchedule(1, 3, 1, NAN), InvalidSchedule, "b must be finite"),
    "schedule_b_infinite": (lambda: AgentSchedule(1, 3, 1, INF), InvalidSchedule,
                            "b must be finite"),
    "cli_affine_a_of_rank_1": (experiment({"variant": "affine", "A": [[1, 2, 3], [2, 4, 6]],
                                           "b": [0, 0]}), 2, "rank 1"),
    "cli_cartesian_size_0": (experiment({"variant": "cartesian", "sizes": [0, 3],
                                         "parts": [{"variant": "whole_space"},
                                                   {"variant": "whole_space"}]}),
                             2, "at least 1"),
    "cli_cartesian_simplex_dim_0": (
        experiment({"variant": "cartesian", "sizes": [0, 2],
                    "parts": [{"variant": "simplex", "dim": 0}, {"variant": "whole_space"}]}),
        2, "dim must be at least 1"),
    "cli_box_lower_nan": (experiment({"variant": "box", "lower": [NAN, -1, -1],
                                      "upper": [1, 1, 1]}), 2, "lower must be free of NaN"),
    "cli_ball_center_nan": (experiment({"variant": "ball", "center": [0, NAN, 0],
                                        "radius": 1.0}), 2, "center must be finite"),
    "cli_halfspace_b_nan": (experiment({"variant": "halfspace", "a": [1, 0, 0], "b": NAN}),
                            2, "b must be finite"),
    "cli_simplex_scale_infinite": (experiment({"variant": "simplex", "dim": 3, "scale": INF}),
                                   2, "scale must be positive and finite"),
    "cli_schedule_a_nan": (experiment(a=NAN), 2, "a must be finite"),
    # ln(k + mu)^b overflowed in the tail check's integral bound at b = 300
    "cli_schedule_b_300": (experiment(b=300), 2, "could bill more oracle calls than the int64"),
    # theta^2 underflowed to 0 in the tail bound of 1/N_k^2, whose value passes the float range
    "cli_constants_theta_1e-200": (("constants", constants_document(theta=1e-200)), 0,
                                   "tail_sum_sq                  inf"),
    # ln(mu - 1)^(1 + 2b) overflowed in the base family's coefficient B, which is 1e-465
    "cli_constants_mu_1e6_b_200": (("constants", constants_document(mu=1e6, b=200)), 0,
                                   "base.tail_coeff_B            0.0"),
    # (b ln(mu - 1)^b)^2 overflowed in the uniform I, which read inf for 31.72
    "cli_constants_mu_1e6_b_200_uniform_complexity": (
        ("constants", constants_document(mu=1e6, b=200)), 0, "uniform.complexity_I         31.72"),
    # (mu - 1)^(1 + 2a) overflowed in the network family's coefficient B
    "cli_constants_network_mu_1e6_a_50": (("constants", constants_document(mu=1e6, a=50)), 0,
                                          "network.rate_Q               3.2"),
    # the uniform divisor b ln(mu - 1)^b underflowed to 0 in its rate constant
    "cli_constants_uniform_mu_2.0001_b_100": (
        ("constants", constants_document(mu=2.0001, b=100)), 0, "uniform.rate_Q               inf"),
    # ln(P/eps)^(1 + b) was complex at eps > P, which JSON cannot hold
    "cli_constants_eps_past_the_uniform_log_argument": (
        ("constants", constants_document({"eps": 100}, b=0.5)), 0,
        "uniform.complexity_bound     None"),
    # a non-finite or negative input reached the formulas
    "cli_constants_sigma_nan": (("constants", constants_document({"sigma": NAN})), 2,
                                "sigma must be finite, got nan"),
    "cli_constants_sigma_infinite": (("constants", constants_document({"sigma": INF})), 2,
                                     "sigma must be finite, got inf"),
    "cli_constants_c2_infinite": (("constants", constants_document({"c2": INF})), 2,
                                  "c2 must be finite, got inf"),
    "cli_constants_d0_nan": (("constants", constants_document({"d0": NAN})), 2,
                             "d0 must be finite, got nan"),
    "cli_constants_j_nan": (("constants", constants_document({"J": NAN})), 2,
                            "J must be finite, got nan"),
    "cli_constants_d0_negative": (("constants", constants_document({"d0": -3})), 2,
                                  "d0 must be nonnegative, got -3"),
    "cli_constants_network_j_negative": (
        ("constants", constants_document({"J": -5, "m": 3}, a=0.5)), 2,
        "J must be nonnegative, got -5"),
    # problems and runs
    "problem_dimension_0": (lambda: problem(dimension=0), InvalidParameters,
                            "dimension must be positive"),
    "problem_lipschitz_0": (lambda: problem(lipschitz_L=0.0), InvalidParameters,
                            "lipschitz_L must be positive"),
    "problem_known_solution_too_long": (
        lambda: problem(solution_set=Box(np.zeros(3), np.zeros(3))), BlockMismatch,
        "solution set has dimension 3, problem has 2"),
    "run_x0_wrong_shape": (lambda: run(plan(), x0=np.zeros(3)), DimensionMismatch,
                           "x0 must have shape (2,)"),
    "martingale_probe_without_mean_operator": (
        lambda: martingale_probe(plan(mean_operator=None), np.zeros(2), 2), NoMeanOperator,
        "needs the closed-form mean operator"),
    "martingale_probe_without_known_solution": (
        lambda: martingale_probe(plan(solution_set=None), np.zeros(2), 2), NoKnownSolutions,
        "carries no solution set"),
    # feasible sets
    "box_bounds_of_different_shapes": (lambda: Box([0, 0], [1, 1, 1]), DimensionMismatch,
                                       "box bounds must share a shape"),
    "box_lower_above_upper": (lambda: Box([0, 2], [1, 1]), InvalidParameters,
                              "lower <= upper"),
    "halfspace_zero_normal": (lambda: Halfspace([0, 0], 1.0), InvalidParameters,
                              "normal must be nonzero"),
    "affine_a_rows_not_len_b": (lambda: AffineSubspace([[1, 0]], [0, 1]), DimensionMismatch,
                                "A rows must match len(b)"),
    "cartesian_sizes_not_one_per_part": (
        lambda: CartesianProduct((WholeSpace(), WholeSpace()), (2,)), BlockMismatch,
        "one size per factor"),
    "set_variant_unknown": (lambda: feasible_set_from_config({"variant": "sphere"}),
                            ConfigError, "unknown feasible-set variant 'sphere'"),
    "set_check_dim_mismatch": (lambda: Ball([0, 0], 1.0).check_dim(3), DimensionMismatch,
                               "set has dimension 2, point has 3"),
    # schedules
    "schedule_a_negative": (lambda: AgentSchedule(1, 3, -0.5, 1), InvalidSchedule,
                            "exponent a must be nonnegative"),
    "schedule_counts_negative_index": (lambda: SCHEDULE.counts([-1]), InvalidSchedule,
                                       "iteration index must be nonnegative"),
    "schedule_sizes_upto_negative_index": (lambda: SCHEDULE.sizes_upto(-1), InvalidSchedule,
                                           "iteration index must be nonnegative"),
    "network_exponents_m_0": (lambda: network_exponents(0, 1.0), InvalidSchedule,
                              "network size must be >= 1"),
    "network_exponents_s_below_1": (lambda: network_exponents(2, 1.0, S=0.5), InvalidSchedule,
                                    "scaling factor S must be >= 1"),
    # experiment documents and probes
    "cli_replications_0": (experiment(top={"replications": 0}), 2,
                           "replications must be >= 1"),
    "cli_dgap_a_without_dgap_b": (experiment(top={"merits": {"dgap_a": 0.5}}), 2,
                                  "needs both dgap_a and dgap_b"),
    "cli_set_on_linear_svi": (experiment({"variant": "whole_space"}, kind="linear_svi"), 2,
                              "'set' override is only supported for strongly_monotone"),
    "cli_probe_without_kind": (("probe", {"replications": 2}), 2,
                               "probe config needs a 'kind' field"),
    # horizon j is keyed by master_seed + j, and 2^63 is no key
    "variance_scaling_last_horizon_past_int64": (
        lambda: variance_scaling_probe([10, 20], 1.0, 1.0, 4, master_seed=2 ** 63 - 1),
        InvalidParameters, "master_seed 9223372036854775807 keys its 2 horizons"),
    "regularized_gap_a_0": (lambda: regularized_gap(problem().mean_operator, WholeSpace(),
                                                    np.zeros(2), 0.0),
                            InvalidParameters, "gap parameter a must be positive"),
    # constants
    "constants_l_0": (lambda: constants_inputs(L=0.0), InvalidInputs, "L must be positive"),
    "constants_sigma_negative": (lambda: constants_inputs(sigma=-1.0), InvalidInputs,
                                 "sigma must be nonnegative"),
    "constants_m_0": (lambda: constants_inputs(m=0), InvalidInputs,
                      "network size must be >= 1"),
    "constants_s_below_1": (lambda: constants_inputs(S=0.5), InvalidInputs, "S must be >= 1"),
    "lp_bound_gamma_negative": (lambda: lp_bound_constants(constants_inputs(), -1.0),
                                InvalidInputs, "gamma must be nonnegative"),
    "rate_bounds_eps_0": (lambda: rate_and_complexity_bounds(constants_inputs(J=1.0), 0.0),
                          InvalidInputs, "eps must be positive"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_misuse_fails_loudly(case, tmp_path, capsys):
    what, expected, text = CASES[case]
    if isinstance(what, dict):
        what = ("experiment", what)
    if isinstance(what, tuple):
        command, document = what
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(document))  # NaN and Infinity, as Python's JSON reader takes
        assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path)]) == expected
        out, err = capsys.readouterr()
        if expected == 0:  # a report, with nothing on stderr and no NaN in it
            assert err == "" and text in out and "nan" not in out.split(), err
            assert not any("NaN" in p.read_text() for p in tmp_path.iterdir())
        else:
            assert err.startswith("error:") and text in err, err
            assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    else:
        with pytest.raises(expected, match=re.escape(text)):
            what()


def wide(lo, hi):
    """Floats spread evenly over the decades from ``lo`` to ``hi``."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


CONSTANTS_DOCUMENTS = st.builds(
    lambda top, schedule: constants_document(top, **schedule),
    st.fixed_dictionaries({
        "sigma": st.just(0.0) | wide(1e-100, 1e150), "d0": wide(5e-324, 0.99),
        "J": wide(5e-324, 0.99), "eps": wide(5e-324, 0.99), "m": st.sampled_from([1, 3])}),
    st.fixed_dictionaries({
        "theta": wide(1e-300, 1e300), "mu": wide(1e-6, 1e300).map(lambda d: 2.0 + d),
        "a": st.just(0.0) | wide(1e-3, 60.0), "b": st.just(0.0) | wide(1e-100, 1e150)}))


@pytest.mark.filterwarnings("error")
@settings(max_examples=25, deadline=None)
@example(constants_document(a=0.0, b=200.0))  # the tail bounds of the two series overflowed
@example(constants_document(a=0.5, b=200.0))
@given(document=CONSTANTS_DOCUMENTS)
def test_constants_command_never_ends_untyped(tmp_path_factory, document):
    """Over schedules, noise levels, distances and tolerances across the float
    range, ``stochvi constants`` reports (exit 0, nothing on stderr, no NaN
    or complex value) or names the fault (exit 2); numpy warns of nothing."""
    cfg = tmp_path_factory.mktemp("constants") / "cfg.json"
    cfg.write_text(json.dumps(document))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli_main(["constants", "--config", str(cfg), "--out", str(cfg.parent)])
    assert status in (0, 2), document
    if status == 2:
        assert err.getvalue().startswith("error:"), err.getvalue()
        return
    report = (cfg.parent / "constants_report.json").read_text()
    assert err.getvalue() == "" and "NaN" not in report, document
    assert not {"nan", "nanj"} & set(out.getvalue().split()) and "j)" not in out.getvalue()
