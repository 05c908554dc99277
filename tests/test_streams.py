"""One stream source: every run-time generator comes from ``core.streams``.

The probes, the baselines and the harness's surrogate take their streams
from a row keyer of their own; ``derive_stream`` is the reference
they equal bit for bit.
"""

import ast
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import default_config
from reference_impls import (
    error_decay_rows_reference,
    surrogate_rows_reference,
    variance_scaling_rows_reference,
)
from stochvi.baselines import variance_scaling_probe
from stochvi.core import ProblemInstance, derive_stream, validate
from stochvi.harness import effective_mean_operator
from stochvi.problems import (
    AdditiveGaussianOracle,
    gen_constant_noise,
    gen_linear_svi,
    gen_strongly_monotone,
)
from stochvi.projection import WholeSpace
from stochvi.sampling import error_decay_probe
from stochvi.solver import _lockstep

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stochvi"


def stream_calls(path):
    """Names of the calls in the module that derive a stream or construct a
    Philox or a Generator."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            f = node.func
            names.add(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None))
    return names & {"derive_stream", "Philox", "Generator"}


def test_only_core_makes_streams():
    calls = {path.name: stream_calls(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name for name, found in calls.items() if found} == {"core.py"}, calls
    # derive_stream is the reference the streams are tested against; the
    # package itself never calls it
    assert calls["core.py"] == {"Philox", "Generator"}


def test_import_loads_no_numpy_random():
    code = "import sys, stochvi; sys.exit('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("seed", [0, 41])
@pytest.mark.parametrize("maker", [
    lambda: gen_strongly_monotone(3, seed=4, noise_scale=0.8),
    lambda: gen_linear_svi(3, seed=4, noise_scale=0.5),
], ids=["additive", "linear"])
def test_error_decay_rows_equal_reference(maker, seed):
    p = maker()
    x = np.array([0.5, 1.0, 2.0])
    grid = [1, 3, 8]
    assert error_decay_probe(p, x, grid, 6, master_seed=seed) == \
        error_decay_rows_reference(p, x, grid, 6, seed)


@pytest.mark.parametrize("seed", [0, 41])
def test_variance_scaling_rows_equal_reference(seed):
    K_list = [2, 7, 30]
    assert variance_scaling_probe(K_list, 0.7, 1.5, 5, master_seed=seed) == \
        variance_scaling_rows_reference(K_list, 0.7, 1.5, 5, seed)


@pytest.mark.parametrize("seed", [987_654_321, 5])
def test_surrogate_rows_equal_reference(seed):
    p = replace(gen_linear_svi(3, seed=2, noise_scale=0.5), mean_operator=None)
    T, estimated = effective_mean_operator(p, n_samples=40, master_seed=seed)
    X = np.linspace(-1.0, 2.0, 12).reshape(4, 3)
    assert estimated
    assert np.array_equal(T(X), surrogate_rows_reference(p, X, 40, seed))
    assert np.array_equal(T(X.reshape(2, 2, 3)), T(X).reshape(2, 2, 3))


def test_surrogate_inside_a_stage_keeps_the_stage_stream():
    """An oracle centred on a surrogate, on a problem without T, takes the
    per-draw route even though it declares ``exact_error``: it evaluates the
    surrogate while it holds the solver's generator, and the surrogate draws
    on a generator of its own, so the stage mean is the average of the
    surrogate's value plus the stage's own normals."""
    base = replace(gen_constant_noise(sigma=1.0, n=2), mean_operator=None)
    S, _ = effective_mean_operator(base, n_samples=30)
    p = ProblemInstance(dimension=2, oracle=AdditiveGaussianOracle(S, 0.3),
                        lipschitz_L=1.0, feasible_set=WholeSpace(2))
    plan = validate(p, default_config(master_seed=5))
    x = np.array([0.4, -1.0])
    (z,), (g1,), (g2,), *_ = _lockstep(plan)([3], 2, x[None], None)  # p has no T
    size = plan.rows[2][0]
    for stage, point, g in ((1, x, g1), (2, z, g2)):
        rng = derive_stream(5, 3, 2, stage, 0)
        assert np.array_equal(g, (S(point) + 0.3 * rng.standard_normal((size, 2))).mean(axis=0))