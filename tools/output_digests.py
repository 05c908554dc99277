"""Write the sha256 digest of every output file of a fixed set of CLI runs.

Two checkouts whose digest files ``diff`` equal produce the same output
bits on these runs:

* ``stochvi experiment`` and ``stochvi solve`` on each benchmark workload
  of ``perfbench/workloads.py`` at seeds 1 and 2, and on rate_ensemble and
  short_agents at seed 1 with diagnostics and the d-gap switched on (the
  benchmark workloads never switch them on);
* ``stochvi probe --seed 3`` on each probe document of the CLI tests
  (``TestCli.PROBE_DOCS`` in ``tests/test_harness.py``).

Each run writes two files: 8 configs x 2 commands x 2 + 5 probes x 2 = 42
digests, keyed ``<run>/<file>``.  BLAS is pinned to one thread.

Usage (from the repository root)::

    python3 tools/output_digests.py digests.json
    python3 tools/output_digests.py --root /path/to/other/checkout other.json
    diff other.json digests.json

``--root`` names the checkout whose ``src/``, ``perfbench/`` and ``tests/``
are used (default: the one holding this script), so a commit that predates
this script can be measured too.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"  # before numpy is first imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

SEEDS = (1, 2)
DIAGNOSTIC_WORKLOADS = ("rate_ensemble", "short_agents")
PROBE_SEED = 3


def configs(workloads):
    """(run name, experiment document) for every workload config."""
    out = []
    for name in sorted(workloads.GENERATORS):
        for seed in SEEDS:
            out.append((f"{name}-s{seed}", workloads.config_document(name, seed)))
    for name in DIAGNOSTIC_WORKLOADS:
        doc = workloads.config_document(name, SEEDS[0])
        doc["solver"]["diagnostics"] = True
        doc["merits"] = {"dgap_a": 1.0, "dgap_b": 2.0}
        out.append((f"{name}-s{SEEDS[0]}-diag", doc))
    return out


def digests(root: Path) -> dict:
    for sub in ("tests", "perfbench", "src"):  # src ends up first on the path
        sys.path.insert(0, str(root / sub))
    import workloads
    from stochvi.cli import main
    from test_harness import TestCli

    runs = [(f"{name}-{command}", [command], doc)
            for name, doc in configs(workloads) for command in ("experiment", "solve")]
    runs += [(f"probe-{kind}", ["probe", "--seed", str(PROBE_SEED)], dict(doc, kind=kind))
             for kind, doc in sorted(TestCli.PROBE_DOCS.items())]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for run, argv, doc in runs:
            cfg = Path(tmp) / f"{run}.json"
            cfg.write_text(json.dumps(doc))
            run_dir = Path(tmp) / run
            with contextlib.redirect_stdout(io.StringIO()):
                main(argv[:1] + ["--config", str(cfg), "--out", str(run_dir)] + argv[1:])
            for path in sorted(run_dir.iterdir()):
                out[f"{run}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write")
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                        help="checkout to run (default: this one)")
    args = parser.parse_args(argv)
    result = digests(Path(args.root).resolve())
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(result)} digests to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
