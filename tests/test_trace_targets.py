"""The benchmark's tracer (perfbench/tracing.py) rebinds names where their
callers look them up; a refactor that moves one of them breaks ``--trace 1``
with a KeyError.  These tests load the tracer and the workloads from their
files and check that every target the tracer names still exists, that the
oracle methods it bills keep ``size`` as their fourth positional argument,
and that a traced experiment's three billing counts agree: the oracle
spans' draws, the solver's billing read at the ``harness.run`` boundary, and
the sum of the traces' final ``cum_calls``, all equal to the workloads' own
formula."""

import importlib.util
import inspect
import time
from pathlib import Path

import pytest

from stochvi import harness
from stochvi.problems import AdditiveGaussianOracle, ConstantOracle, LinearMatrixNoiseOracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """The module ``perfbench/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_rebind_target_resolves():
    targets = load("tracing").rebind_targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert targets and not missing, missing


@pytest.mark.parametrize("method", ["__call__", "block"])
@pytest.mark.parametrize("cls", [AdditiveGaussianOracle, LinearMatrixNoiseOracle,
                                 ConstantOracle])
def test_oracle_size_is_fourth_positional(cls, method):
    """The tracer bills an oracle span ``args[3]``, counting ``self``: a
    reordered signature would bill the wrong argument on every pass."""
    params = list(inspect.signature(vars(cls)[method]).parameters.values())
    assert params[3].name == "size"
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[:4])


@pytest.mark.parametrize("workload, replications, K", [("short_agents", 3, 6),
                                                       ("rate_ensemble", 2, 12)])
def test_traced_billing_counts_agree(workload, replications, K):
    """An engine that bypassed ``harness.run`` would bill the solver 0 here
    while the oracle and the traces billed every call."""
    tracing, workloads = load("tracing"), load("workloads")
    document = workloads.config_document(workload, seed=901)
    document["replications"] = replications
    document["solver"]["max_iterations"] = K
    document.pop("rate_fit_window", None)
    snapshot, tracer = tracing.original_objects(), tracing.Tracer()
    with tracing.Rebinder() as rebinder:
        tracer.install(rebinder)
        result = harness.run_experiment(harness.experiment_from_config(document))
        end = time.perf_counter()
    assert tracing.all_restored(snapshot)
    tracer.harvest_streams()
    metrics, _ = tracing.layer_metrics(tracer.spans, sum(tracer.words.values()), end)
    final = sum(int(t.cum_calls[-1]) for t in result.traces)
    assert len(result.traces) == replications
    assert metrics["problems.oracle.billed_draws"] == metrics["solver.billed_calls"] \
        == final == replications * workloads.expected_calls(document, K)
    assert metrics["solver.iterations"] == sum(t.n_steps for t in result.traces) \
        == replications * K
    assert metrics["solver.run.calls"] == 1  # the ensemble is one engine call
    # validate and its tail check run under the names the tracer rebinds
    assert metrics["core.validate.calls"] == 1
    assert metrics["sampling.schedule_tail_check.s"] > 0
