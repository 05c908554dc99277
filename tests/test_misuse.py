"""Misuse fails loudly: one table of bad inputs to the public entry points.

Each case is a call that must raise a typed ``StochviError`` whose message
names the fault, or an experiment document on which ``stochvi experiment``
must exit 2 with an ``error:`` line naming it.  None may end in NaN output,
an untyped exception or a message about a symptom elsewhere (a feasible
set with a NaN parameter used to fail the mean-operator row check, and a
schedule exponent of NaN the tail check).
"""

import json
import math
import re

import pytest

from stochvi.cli import main as cli_main
from stochvi.errors import BlockMismatch, InvalidParameters, InvalidSchedule
from stochvi.projection import (
    AffineSubspace,
    Ball,
    Box,
    CartesianProduct,
    Halfspace,
    Simplex,
    WholeSpace,
)
from stochvi.sampling import AgentSchedule

NAN, INF = math.nan, math.inf


def experiment(fset=None, **schedule):
    """A three-dimensional strongly monotone experiment on ``fset``."""
    problem = {"kind": "strongly_monotone", "n": 3, "seed": 0, "noise_scale": 0.5,
               "center": [0.0, 0.0, 0.0]}
    if fset is not None:
        problem["set"] = fset
    return {"schema_version": 1, "problem": problem,
            "solver": {"stepsize": 0.25, "max_iterations": 5,
                       "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1, **schedule}}}


CASES = {  # name: (call or experiment document, error or exit code, text the message holds)
    "affine_a_of_rank_1_2x3": (lambda: AffineSubspace([[1, 2, 3], [2, 4, 6]], [0, 0]),
                                InvalidParameters, "rank 1"),
    "affine_a_of_rank_1_cholesky_passes_on_roundoff": (
        lambda: AffineSubspace([[1, 1], [2, 2]], [0, 0]), InvalidParameters, "rank 1"),
    "affine_a_too_close_to_rank_1": (lambda: AffineSubspace([[1, 1], [1, 1 + 1e-10]], [0, 0]),
                                     InvalidParameters, "Cholesky cannot factor"),
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
}


@pytest.mark.parametrize("case", list(CASES))
def test_misuse_fails_loudly(case, tmp_path, capsys):
    what, expected, text = CASES[case]
    if isinstance(what, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(what))  # NaN and Infinity, as Python's JSON reader takes
        assert cli_main(["experiment", "--config", str(cfg), "--out", str(tmp_path)]) == expected
        err = capsys.readouterr().err
        assert err.startswith("error:") and text in err, err
        assert not (tmp_path / "experiment_summary.json").exists()
    else:
        with pytest.raises(expected, match=re.escape(text)):
            what()

