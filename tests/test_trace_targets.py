"""The benchmark's tracer (perfbench/tracing.py) rebinds names where their
callers look them up; a refactor that moves one of them breaks ``--trace 1``
with a KeyError.  This test loads the tracer from its file and checks every
target it names still exists, and that the oracle methods it bills keep
``size`` as their fourth positional argument."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from stochvi.problems import AdditiveGaussianOracle, ConstantOracle, LinearMatrixNoiseOracle

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_rebind_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.rebind_targets()
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
