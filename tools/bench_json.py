"""Run the benchmark on its three workloads and write ``BENCH_<label>.json``.

Each workload runs through ``perfbench/run.py`` once per seed with
``--trace 0`` (end-to-end metrics) and once at the first seed with
``--trace 1`` (per-layer metrics).  The file records, per workload, the
median of every end-to-end metric over the seeds and each run's values, the
per-layer metrics, whether every run reported ``correct``, and the
environment fingerprint of ``result.json``; at the top level it records the
git commit of the measured checkout, whether its tree differed from that
commit, and a sha256 over ``src/stochvi`` that names the code measured.

Usage (from the repository root)::

    python3 tools/bench_json.py 11
    python3 tools/bench_json.py 0 --root /path/to/parent/checkout --out BENCH_0.json

``--root`` names the checkout whose ``perfbench/run.py`` (and so whose
``src/``) is run (default: the one holding this script).  Measure two
checkouts one after the other on the same machine to compare them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("rate_ensemble", "linear_svi", "short_agents")
SEEDS = (901, 902, 903)


def git(root: Path, *args) -> str | None:
    proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "stochvi").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its final JSON line and its result.json."""
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=root, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((root / ".perfbench_out" / workload / f"seed{seed}-trace{trace}"
                         / "result.json").read_text())
    return {"correct": line["correct"], "attempted": line["attempted"],
            "failed": line["failed"], "env": result["env"],
            "metrics": {k: v["value"] for k, v in line["metrics"].items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="the file written is BENCH_<label>.json")
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                        help="checkout to run (default: this one)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="seconds of passes per run (default 10)")
    parser.add_argument("--out", help="path to write (default: BENCH_<label>.json here)")
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()

    workloads = {}
    for name in WORKLOADS:
        runs = [bench(root, name, seed, args.seconds, 0) for seed in SEEDS]
        traced = bench(root, name, SEEDS[0], args.seconds, 1)
        workloads[name] = {
            "end_to_end": {key: statistics.median(r["metrics"][key] for r in runs)
                           for key in runs[0]["metrics"]},
            "end_to_end_runs": [r["metrics"] for r in runs],
            "per_layer": traced["metrics"],
            "correct": all(r["correct"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "env": runs[0]["env"],
        }
        print(f"{name}: pass_s {workloads[name]['end_to_end']['pass_s']:.4f} s, "
              f"correct {workloads[name]['correct']}", flush=True)

    status = git(root, "status", "--porcelain", "--", "src", "perfbench")
    doc = {
        "label": args.label,
        "git_commit": git(root, "rev-parse", "HEAD"),
        "git_tree_differs": None if status is None else bool(status),
        "src_sha256": src_digest(root),
        "command": "perfbench/run.py --workload W --seed S --seconds "
                   f"{args.seconds:g} --trace 0|1",
        "seeds": {"trace0": list(SEEDS), "trace1": [SEEDS[0]]},
        "workloads": workloads,
    }
    out = Path(args.out) if args.out else Path(__file__).resolve().parent.parent \
        / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
