"""stochvi benchmark: experiment passes through the CLI, checked and timed.

Usage (from the repository root):

    python3 perfbench/run.py --workload rate_ensemble --seed 1 --seconds 36 --trace 0

One pass is ``stochvi experiment --config <generated config> --out <dir>``,
run through ``stochvi.cli.main`` in this process: config parsing,
validation, the replication ensemble, aggregation and the CSV/JSON outputs.
Passes run back to back, one at a time (a closed loop with one client),
for ``--seconds`` after one untimed warm-up pass.  One operation is one
replication.  Every pass rebinds ``stochvi.harness.run_experiment`` to a
pass-through that keeps the ExperimentResult, because the output checks
need each replication's trace and the CLI does not return it.

``--trace 0`` prints the end-to-end metrics.  Their times are wall seconds
scaled to a fixed machine speed by a reference kernel timed just before and
just after each pass and set-up probe (see ``speedref.py``); the raw wall
times are printed and written beside them.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including the
tracing overhead.  Details of every run (environment, config hash, passes,
checks) go to ``.perfbench_out/<workload>/``; the last stdout line is the
JSON result.  BLAS is pinned to one thread and the harness runs serially.
"""

from __future__ import annotations

import os
import sys

PINNED_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)  # before numpy is first imported

import argparse  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from speedref import reference_seconds, scaled  # noqa: E402
from tracing import (  # noqa: E402
    Rebinder,
    Tracer,
    all_restored,
    capture,
    layer_metrics,
    original_objects,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3  # before the passes and again after them


def median(values):
    """Median; counts stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    q = (n - 10) / n
    return 100.0 * q, sorted(values)[n - 11]


def fingerprint(document, workload, seed, config_hash):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "config_sha256": config_hash,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "pinned_threads": {k: os.environ.get(k) for k in PINNED_THREADS},
        "harness_threads": document["threads"],
        "machine": platform.machine(),
    }


def measure_setup(config_path):
    """Set-up times of fresh interpreters, run one after another, each
    bracketed by the reference kernel; returns (wall, scaled) lists."""
    wall, scaled_s = [], []
    ref = reference_seconds()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config_path)],
            capture_output=True, text=True, timeout=120, check=True)
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        ref_after = reference_seconds()
        wall.append(seconds)
        scaled_s.append(scaled(seconds, ref, ref_after))
        ref = ref_after
    return wall, scaled_s


class Bench:
    """Passes of one workload config, checked against each other."""

    def __init__(self, workload, document, run_dir):
        self.workload = workload
        self.document = document
        self.config_path = run_dir / "config.json"
        self.config_path.write_bytes(workloads.document_bytes(self.document))
        self.config_hash = workloads.document_hash(self.document)
        warm = dict(self.document, replications=1)
        self.warmup_path = run_dir / "warmup.json"
        self.warmup_path.write_bytes(workloads.document_bytes(warm))
        self.out_dir = run_dir / "pass"
        self.out_dir.mkdir(exist_ok=True)
        self.reference_digest = None

    def warm_up(self):
        """One untimed one-replication pass: lazy imports and first-call
        set-up happen here.  Its outputs are not the workload's."""
        self.run_pass(self.warmup_path)
        self.reference_digest = None

    def run_pass(self, config_path, tracer=None):
        """One experiment command, timed and checked; returns its record."""
        from stochvi.cli import main as cli_main

        for f in self.out_dir.iterdir():
            f.unlink()
        results = []
        argv = ["experiment", "--config", str(config_path), "--out", str(self.out_dir)]
        error = None
        with Rebinder() as rebinder:
            capture(rebinder, results)
            if tracer is not None:
                tracer.install(rebinder)
            t0 = time.perf_counter()
            try:
                with redirect_stdout(io.StringIO()):
                    code = cli_main(argv)
                if code != 0:
                    error = f"exit code {code}"
            except Exception:  # a pass that raises fails all its replications
                error = traceback.format_exc()
            t1 = time.perf_counter()
        return self._record(t0, t1, error, results)

    def _record(self, t0, t1, error, results):
        R = self.document["replications"]
        rec = {"seconds": t1 - t0, "start": t0, "end": t1, "error": error,
               "failed": R, "problems": []}
        csv = self.out_dir / "experiment.csv"
        if error is None and not (results and csv.is_file()):
            error = rec["error"] = "no result captured or no CSV written"
        if error is not None:
            return rec
        result = results[0]
        rec["digest"] = hashlib.sha256(csv.read_bytes()).hexdigest()
        rec["bytes"] = sum(f.stat().st_size for f in self.out_dir.iterdir())
        rec["billed"] = int(sum(int(t.cum_calls[-1]) for t in result.traces))
        rec["slope"] = result.slope
        rec["k_eps"] = result.k_eps
        rec["calls_to_eps"] = None if result.k_eps is None \
            else int(result.cum_calls[result.k_eps])
        bad = workloads.check_replications(self.document, result)
        problems = [f"replication {r}: {why}" for r, why in bad]
        problems += workloads.check_pass(self.workload, result)
        if self.reference_digest is None:
            self.reference_digest = rec["digest"]
        elif rec["digest"] != self.reference_digest:
            problems.append("experiment.csv differs from the first pass")
        rec["problems"] = problems
        pass_level = len(problems) > len(bad)
        rec["failed"] = R if pass_level else len({r for r, _ in bad})
        return rec


def run_untraced(bench, seconds):
    """Passes until the deadline, each bracketed by the reference kernel
    (one kernel run sits between two passes)."""
    bench.warm_up()
    passes = []
    deadline = time.perf_counter() + seconds
    ref = reference_seconds()
    while True:
        rec = bench.run_pass(bench.config_path)
        ref_after = reference_seconds()
        rec["ref_s"] = (ref, ref_after)
        rec["scaled_s"] = scaled(rec["seconds"], ref, ref_after)
        ref = ref_after
        passes.append(rec)
        if len(passes) >= 2 and time.perf_counter() + rec["seconds"] > deadline:
            return passes


def run_traced(bench, seconds, restored):
    bench.warm_up()
    untraced, traced, layers, checks, spans = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    ref = reference_seconds()
    while True:
        if not restored():
            checks.append("a rebound name was not restored before an untraced pass")
        rec = bench.run_pass(bench.config_path)
        ref_mid = reference_seconds()
        rec["scaled_s"] = scaled(rec["seconds"], ref, ref_mid)
        untraced.append(rec)
        tracer = Tracer(len(traced))
        rec_t = bench.run_pass(bench.config_path, tracer)
        tracer.harvest_streams()
        ref = reference_seconds()
        rec_t["scaled_s"] = scaled(rec_t["seconds"], ref_mid, ref)
        traced.append(rec_t)
        spans.append(tracer.spans)
        if rec_t["error"] is None:
            words = sum(tracer.words.values())
            metrics, detail = layer_metrics(tracer.spans, words, rec_t["end"])
            metrics["harness.persist.bytes"] = rec_t["bytes"]
            metrics["solver.k_eps"] = -1 if rec_t["k_eps"] is None else rec_t["k_eps"]
            metrics["solver.billed_calls_to_eps"] = \
                -1 if rec_t["calls_to_eps"] is None else rec_t["calls_to_eps"]
            counts = (metrics["problems.oracle.billed_draws"],
                      metrics["solver.billed_calls"], rec_t["billed"])
            if len(set(counts)) != 1:
                checks.append(f"billed counts disagree (oracle draws, solver, "
                              f"sum of final cum_calls): {counts}")
            layers.append((metrics, detail))
        n = min(len(untraced), len(traced))
        if n >= 2 and time.perf_counter() + rec["seconds"] + rec_t["seconds"] > deadline:
            break
    if not restored():
        checks.append("a rebound name was not restored after the traced run")
    if len({m["core.rng.words"] for m, _ in layers}) > 1:
        checks.append("core.rng.words differs between repeats of one pass")
    return untraced, traced, layers, checks, spans


def write_spans(path, spans_per_pass):
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("pass,span,parent,name,group,start_s,end_s,value\n")
        for p, spans in enumerate(spans_per_pass):
            for sid, span in enumerate(spans):
                if span is None:
                    continue
                parent, name, group, t0, t1, value = span
                if isinstance(value, tuple):
                    value = value[1]
                fh.write(f"{p},{sid},{parent},{name},{group},{t0!r},{t1!r},"
                         f"{'' if value is None else value}\n")


def claims(workload, metrics, detail, pass_s):
    """The layer shares each workload was chosen for; ``pass_s`` is the
    median wall time of a traced pass, the base of the layer seconds."""
    oracle = metrics["problems.oracle.s"]
    out = {"oracle_share_of_pass": oracle / pass_s}
    merit_self = sum(v for k, v in detail.items()
                     if k.startswith("merit.") and k.endswith(".self_s"))
    rest = (metrics["core.derive_stream.s"] + metrics["solver.self_s"]
            + metrics["projection.s"] + merit_self)
    out["streams_solver_projection_merit_s"] = rest
    if workload == "short_agents":
        out["holds"] = rest > oracle
    else:
        out["holds"] = oracle > 0.5 * pass_s
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stochvi" / "__init__.py").is_file():
        print(f"error: stochvi sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stochvi

    if Path(stochvi.__file__).resolve().parent != (SRC / "stochvi").resolve():
        print(f"error: imported stochvi from {stochvi.__file__}", file=sys.stderr)
        return 2
    snapshot = original_objects()
    run_dir = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, workloads.config_document(args.workload, args.seed),
                  run_dir)
    env = fingerprint(bench.document, args.workload, args.seed, bench.config_hash)
    R = bench.document["replications"]
    report = {"env": env}

    if args.trace:
        untraced, traced, layers, checks, spans = run_traced(
            bench, args.seconds, lambda: all_restored(snapshot))
        passes = untraced + traced
        metrics = {}
        if layers:
            for key in layers[0][0]:
                metrics[key] = median([m[key] for m, _ in layers])
            detail = {k: median([d.get(k, 0.0) for _, d in layers]) for k in layers[0][1]}
            # Layer seconds are wall seconds; the two pass times are scaled
            # to the reference speed like the end-to-end pass_s.
            t_pass = median([p["scaled_s"] for p in traced])
            u_pass = median([p["scaled_s"] for p in untraced])
            metrics["trace.pass_s"] = t_pass
            metrics["trace.overhead_s"] = t_pass - u_pass
            report["layer_detail"] = detail
            report["claims"] = claims(args.workload, metrics, detail,
                                      median([p["seconds"] for p in traced]))
        write_spans(OUT / args.workload / "spans.csv.gz", spans)
    else:
        setup_wall, setup_scaled = measure_setup(bench.config_path)
        passes = run_untraced(bench, args.seconds)
        more_wall, more_scaled = measure_setup(bench.config_path)
        setup_wall += more_wall
        setup_scaled += more_scaled
        checks = []
        times = [p["scaled_s"] for p in passes]
        billed = next((p["billed"] for p in passes if "billed" in p), 0)
        pass_s = median(times)
        metrics = {
            "pass_s": pass_s,
            "billed_calls_per_s": billed / pass_s,
            "setup_s": median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report["wall"] = {
            "pass_s": median([p["seconds"] for p in passes]),
            "setup_s": median(setup_wall),
            "reference_s": median([r for p in passes for r in p["ref_s"]]),
        }
        report["setup_s_all"] = {"wall": setup_wall, "scaled": setup_scaled}
        report["pass_s_tail"] = tail(times)

    attempted = R * len(passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and not checks
    report.update(passes=passes, checks=checks, metrics=metrics,
                  attempted=attempted, failed=failed, correct=correct)
    (run_dir / "result.json").write_text(json.dumps(report, indent=1, default=str))

    for p in passes:
        for msg in ([p["error"]] if p["error"] else []) + p["problems"]:
            print(f"check failed: {msg.strip().splitlines()[-1]}")
    for msg in checks:
        print(f"check failed: {msg}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    if not args.trace:
        t = report["pass_s_tail"]
        tail_msg = "no percentile has ten passes beyond it" if t is None \
            else f"p{t[0]:.0f} {t[1]:.4f} s"
        print(f"pass_s over {len(passes)} passes: median {metrics['pass_s']:.4f} s, "
              f"{tail_msg} (scaled to the reference speed)")
        print(f"wall medians: {json.dumps(report['wall'], sort_keys=True)}")
    elif "claims" in report:
        print(f"claims: {json.dumps(report['claims'], sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name} = {value}")
    units = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())
             ["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                    if k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
