"""Write the sha256 digest of every output file of a fixed set of CLI runs.

Two checkouts whose digest files ``diff`` equal produce the same output
bits on these runs:

* ``stochvi experiment`` and ``stochvi solve`` on each benchmark workload
  of ``perfbench/workloads.py`` at seeds 1 and 2, and on rate_ensemble and
  short_agents at seed 1 with diagnostics and the d-gap switched on (the
  benchmark workloads never switch them on);
* ``stochvi experiment`` on ``CARTESIAN_AGENTS``: four distributed agents
  on a product of a box, a ball of radius 0.25, an orthant and the whole
  space, noisy enough that the ball's factor projects most stages;
* ``stochvi experiment`` on ``BOX_AGENTS``: three distributed agents given
  ``blocks`` on one plain box, whose bounds mix finite, infinite and zero
  values, so the problem keeps the box as the product along its blocks;
* ``stochvi experiment`` on ``early_stop_document``: rate_ensemble's
  problem at seed 1 with residual floor 1e-4, K = 30, R = 8 and the d-gap
  on, where six rows stop early and two run to K, so the summary pins how
  a stopped row is carried to K;
* ``stochvi probe --seed 3`` on each probe document of the CLI tests
  (``TestCli.PROBE_DOCS`` in ``tests/test_harness.py``);
* ``stochvi constants`` on the four documents of ``CONSTANTS_DOCS``: the
  README example and the acceptance criterion-9 inputs (both against the
  seed-1 rate_ensemble experiment summary), a network of three agents with
  independent draws and a > 0, and a p = 4 input;
* ``solver.run`` (replication 0) on each workload config at seed 1 with its
  oracle wrapped so that it draws every sample: as a plain function (no
  ``block``, no ``exact_error``; distributed stages slice the full draws) and
  as an object with ``__call__`` and ``block`` but no ``exact_error``.  No CLI
  run reaches these routes, since every built-in oracle declares
  ``exact_error``;
* the batch-mean surrogate of ``harness.effective_mean_operator`` on a
  linear SVI problem built without ``mean_operator``: five rows, 64 draws
  each.  No CLI run reaches it, since every built-in problem has a closed
  form mean operator.

Each experiment, solve and probe run writes two files: 8 configs x 2
commands x 2 + 3 experiments x 2 + 5 probes x 2 = 48 digests, keyed
``<run>/<file>``; each
constants run writes one, 4 more; each per-draw run gives one digest of
its ``iterates``, ``r2`` and ``cum_calls``, 3 configs x 2 wrappers = 6 more;
the surrogate gives one, 59 in all.  BLAS is pinned to one thread.

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
INF = float("inf")  # written as Infinity, which Python's JSON reader takes
RATE_SUMMARY = "rate_ensemble-s1-experiment/experiment_summary.json"
CARTESIAN_AGENTS = {
    "schema_version": 1,
    "problem": {"kind": "strongly_monotone", "n": 7, "seed": 5, "noise_scale": 10.0,
                "center": [0.0] * 7, "blocks": [2, 2, 1, 2],
                "set": {"variant": "cartesian", "sizes": [2, 2, 1, 2],
                        "parts": [{"variant": "box", "lower": [-1.0, -1.0],
                                   "upper": [1.0, 1.0]},
                                  {"variant": "ball", "center": [0.0, 0.0], "radius": 0.25},
                                  {"variant": "nonnegative_orthant", "dim": 1},
                                  {"variant": "whole_space", "dim": 2}]}},
    "solver": {"stepsize": 0.25, "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1},
               "max_iterations": 20, "coordination": "distributed", "master_seed": 1},
    "replications": 3,
    "x0": [1.5] * 7,
    "epsilon": 1e-2,
}
BOX_AGENTS = {
    "schema_version": 1,
    "problem": {"kind": "strongly_monotone", "n": 5, "seed": 5, "noise_scale": 4.0,
                "center": [0.0] * 5, "blocks": [2, 2, 1],
                "set": {"variant": "box", "lower": [-1.0, -0.0, 0.0, -INF, -0.5],
                        "upper": [1.0, 0.5, INF, 0.0, 0.0]}},
    "solver": {"stepsize": 0.25, "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1},
               "max_iterations": 20, "coordination": "distributed", "master_seed": 1},
    "replications": 3,
    "x0": [1.5] * 5,
    "epsilon": 1e-2,
}
CONSTANTS_DOCS = {
    "readme": {"eps": 1e-4, "L": 1.0, "alpha": 0.25, "sigma": 2.2360679,
               "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1},
               "phi": 0.5, "d0": 2.2360679, "run_summary": RATE_SUMMARY},
    "criterion9": {"eps": 1e-4, "L": 1.0, "alpha": 0.25, "sigma": 5 ** 0.5,
                   "schedule": {"theta": 1, "mu": 3, "a": 0, "b": 1},
                   "phi": 0.5, "d0": 5 ** 0.5, "run_summary": RATE_SUMMARY},
    "network": {"eps": 1e-3, "L": 1.0, "alpha": 0.1, "sigma": 1.0, "J": 2.0,
                "m": 3, "shared_samples": False,
                "schedule": [{"theta": 1, "mu": 3, "a": 0.5, "b": 1.0},
                             {"theta": 1.5, "mu": 4, "a": 0.5, "b": 0.6},
                             {"theta": 2, "mu": 3.5, "a": 0.5, "b": 0.2}]},
    "bounded_p4": {"eps": 1e-3, "L": 1.0, "alpha": 0.2, "sigma": 0.5, "J": 1.5,
                   "schedule": {"theta": 2, "mu": 3, "a": 0, "b": 1},
                   "p": 4, "cp": 1.2, "cq": 1.1},
}


def early_stop_document(workloads):
    """rate_ensemble at seed 1, cut to K = 30 and R = 8 with a residual
    floor that six of the rows reach before K."""
    doc = workloads.config_document("rate_ensemble", SEEDS[0])
    doc["solver"].update(max_iterations=30, residual_floor=1e-4)
    del doc["rate_fit_window"]
    doc.update(replications=8, merits={"dgap_a": 1.0, "dgap_b": 2.0})
    return doc


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


class PerDrawOracle:
    """``__call__`` and ``block`` of a wrapped oracle, per draw only."""

    def __init__(self, oracle):
        self.oracle = oracle

    def __call__(self, rng, x, size):
        return self.oracle(rng, x, size)

    def block(self, rng, x, size, sl):
        return self.oracle.block(rng, x, size, sl)


def per_draw_digests(workloads) -> dict:
    """Digest of ``solver.run`` on each workload at seed 1 under both
    per-draw wrappers of its oracle."""
    import dataclasses

    import numpy as np
    from stochvi.core import validate
    from stochvi.harness import experiment_from_config
    from stochvi.solver import run

    wrappers = {"function": lambda o: lambda rng, x, size: o(rng, x, size),
                "object": PerDrawOracle}
    out = {}
    for name in sorted(workloads.GENERATORS):
        exp = experiment_from_config(workloads.config_document(name, SEEDS[0]))
        for kind, wrap in wrappers.items():
            problem = dataclasses.replace(exp.problem, oracle=wrap(exp.problem.oracle))
            plan = validate(problem, exp.solver)
            if hasattr(plan, "problem"):
                trace = run(plan, replication=0, x0=exp.x0)
            else:  # a checkout whose validate returns only the report
                trace = run(problem, exp.solver, replication=0, x0=exp.x0)
            data = b"".join(np.ascontiguousarray(getattr(trace, f)).tobytes()
                            for f in ("iterates", "r2", "cum_calls"))
            out[f"{name}-s{SEEDS[0]}-per_draw_{kind}/iterates,r2,cum_calls"] = \
                hashlib.sha256(data).hexdigest()
    return out


def surrogate_digest() -> dict:
    """Digest of the surrogate mean operator's values on five rows."""
    import dataclasses

    import numpy as np
    from stochvi.harness import effective_mean_operator
    from stochvi.problems import gen_linear_svi

    problem = dataclasses.replace(gen_linear_svi(4, seed=2, noise_scale=0.5),
                                  mean_operator=None)
    T, _ = effective_mean_operator(problem, n_samples=64)
    values = np.asarray(T(np.linspace(-1.0, 2.0, 20).reshape(5, 4)), dtype=float)
    return {"surrogate-linear_svi/values": hashlib.sha256(values.tobytes()).hexdigest()}


def digests(root: Path) -> dict:
    for sub in ("tests", "perfbench", "src"):  # src ends up first on the path
        sys.path.insert(0, str(root / sub))
    import workloads
    from stochvi.cli import main
    from test_harness import TestCli

    runs = [(f"{name}-{command}", [command], doc)
            for name, doc in configs(workloads) for command in ("experiment", "solve")]
    runs.append(("cartesian_agents-experiment", ["experiment"], CARTESIAN_AGENTS))
    runs.append(("box_agents-experiment", ["experiment"], BOX_AGENTS))
    runs.append(("early_stop-experiment", ["experiment"], early_stop_document(workloads)))
    runs += [(f"probe-{kind}", ["probe", "--seed", str(PROBE_SEED)], dict(doc, kind=kind))
             for kind, doc in sorted(TestCli.PROBE_DOCS.items())]
    runs += [(f"constants-{name}", ["constants"], doc)  # after the summaries they read
             for name, doc in CONSTANTS_DOCS.items()]
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
    return {**out, **per_draw_digests(workloads), **surrogate_digest()}


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
