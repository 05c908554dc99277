"""The benchmark's tracer (perfbench/tracing.py) rebinds names where their
callers look them up; a refactor that moves one of them breaks ``--trace 1``
with a KeyError.  This test loads the tracer from its file and checks every
target it names still exists."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_rebind_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.rebind_targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert targets and not missing, missing
