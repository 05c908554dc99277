"""The determinism contract as a check: the 55 output digests of
``tools/output_digests.py`` (CLI experiments, solves, probes and constants
reports, the per-draw routes and the surrogate) equal the committed ones in
``tests/data/output_digests.json``.

Bits may legitimately differ on another numpy or BLAS, so the file records
the environment it was written in, and a failure prints it beside the
current one.  A change that means to alter outputs rewrites the file with
``python3 tests/test_output_digests.py`` and names each changed digest.
"""

import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
COMMITTED = ROOT / "tests" / "data" / "output_digests.json"


def environment():
    """numpy's and Python's versions and numpy's BLAS line."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "python": platform.python_version(),
            "blas": blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"}


def current_digests(tmp_dir):
    """The digests of this tree, written by the tool in a fresh interpreter
    (it pins BLAS to one thread before numpy is imported)."""
    out = Path(tmp_dir) / "digests.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "output_digests.py"), str(out)],
                   check=True, capture_output=True, text=True)
    return json.loads(out.read_text())


def test_output_digests_unchanged(tmp_path):
    committed = json.loads(COMMITTED.read_text())
    digests = current_digests(tmp_path)
    expected = committed["digests"]
    changed = sorted(k for k in expected.keys() | digests.keys()
                     if expected.get(k) != digests.get(k))
    assert len(expected) == 55 and not changed, (
        f"{len(changed)} output digests differ: {changed}\n"
        f"committed in: {committed['environment']}\n"
        f"current:      {environment()}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {"environment": environment(), "digests": current_digests(tmp)}
    COMMITTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['digests'])} digests to {COMMITTED}")
