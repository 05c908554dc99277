"""The oracle is reached through ``ProblemInstance.route`` alone.

Only ``core.py``, which defines the route, and ``problems.py``, which
defines the built-in oracles, may read a problem's ``.oracle`` or call an
oracle's ``.block(``; every other module takes a stage's average from the
route, so the exact-law shortcut and the per-draw average cannot drift
apart in a second copy.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stochvi"
OWNERS = {"core.py", "problems.py"}


def oracle_reads(source):
    """Lines of ``source`` that read an attribute ``oracle`` or call a
    method ``block``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "oracle":
            lines.add(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "block"):
            lines.add(node.lineno)
    return sorted(lines)


def test_only_core_and_problems_touch_the_oracle():
    found = {path.name: oracle_reads(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name not in OWNERS}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize("source", [
    "draws = problem.oracle(rng, x, size)",
    "o = plan.problem.oracle",
    "err = o.block(rng, x, size, sl, error=True)",
    "mean = getattr(problem, 'x').oracle.block(rng, x, 4, slice(None)).mean(axis=0)",
])
def test_scan_flags_a_direct_oracle_call(source):
    assert oracle_reads(source)


def test_scan_passes_the_route():
    assert not oracle_reads(
        "route = problem.route(sl)\n"
        "means = route(keyed(replications, k, stage, i), X, size, TX)\n"
        "slices = problem.block_slices()\n")
