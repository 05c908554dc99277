"""Command-line entry point.

Subcommands:
    solve       run one replication, write the trace CSV and JSON summary
    experiment  run a replication ensemble, write per-k statistics
    probe       run a named verification probe, write CSV + verdict JSON
    constants   evaluate the theoretical-constants report

All subcommands read a JSON config (--config) and write into --out.
``solve`` also takes --seed; ``experiment`` and ``probe`` take --seed and
--replications; ``constants`` takes neither.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, StochviError, typed
from .solver import write_json


def _load(path, where="config"):
    """The JSON object at ``path``; one that cannot be read or parsed, or is
    not an object, raises ``ConfigError`` naming the path."""
    try:
        with open(path) as fh:
            document = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if not isinstance(document, dict):
        raise ConfigError(f"{where} must be an object, got {document!r} (in {path})")
    return document


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stochvi",
        description="Variance-reduced stochastic extragradient experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    both = ["--seed", "--replications"]
    for name, overrides in (("solve", ["--seed"]), ("experiment", both), ("probe", both),
                            ("constants", [])):
        sub = subs.add_parser(name)
        sub.add_argument("--config", required=True, help="JSON config path")
        sub.add_argument("--out", default="out", help="output directory")
        for flag in overrides:
            sub.add_argument(flag, type=int, help=f"override the {flag[2:]}")
    return parser


def _override(document, section, key, value):
    """Set ``key`` in the ``section`` of ``document`` (the document itself if
    None); a section that is not an object raises ``ConfigError``."""
    target = document if section is None else document.setdefault(section, {})
    if not isinstance(target, dict):
        raise ConfigError(f"{section} must be an object in the config, got {target!r}")
    target[key] = value


def _apply_overrides(document, args):
    if args.seed is not None:
        _override(document, "solver", "master_seed", args.seed)
    if getattr(args, "replications", None) is not None:  # solve has no such flag
        document["replications"] = args.replications
    return document


def cmd_solve(args):
    from .core import validate
    from .harness import experiment_from_config
    from .solver import run

    document = _apply_overrides(_load(args.config), args)
    cfg = experiment_from_config(document)
    trace = run(validate(cfg.problem, cfg.solver), replication=0, x0=cfg.x0)
    out = Path(args.out)
    trace.to_csv(out / "trace.csv")
    write_json(out / "trace_summary.json", trace.summary())
    print(f"wrote {out / 'trace.csv'} ({trace.n_steps} steps, "
          f"{int(trace.cum_calls[-1])} oracle calls)")
    return 0


def cmd_experiment(args):
    from .harness import experiment_from_config, run_experiment

    document = _apply_overrides(_load(args.config), args)
    cfg = experiment_from_config(document)
    result = run_experiment(cfg)
    out = Path(args.out)
    result.to_csv(out / "experiment.csv")
    write_json(out / "experiment_summary.json", result.summary())
    msg = f"wrote {out / 'experiment.csv'} (R={result.replications}"
    if result.slope is not None:
        msg += f", slope={result.slope:.3f}"
    if result.k_eps is not None:
        msg += f", K_eps={result.k_eps}"
    print(msg + ")")
    return 0


def cmd_probe(args):
    from .harness import probe, probe_spec

    document = _load(args.config)
    kind = document.pop("kind", None)
    if kind is None:
        raise StochviError("probe config needs a 'kind' field")
    spec = probe_spec(kind)
    if args.replications is not None and "replications" in spec.keys:
        document["replications"] = args.replications
    if args.seed is not None:
        _override(document, *spec.seed_field, args.seed)
    verdict = probe(kind, document, args.out)
    print(f"{kind}: {'PASS' if verdict.get('passed') else 'FAIL'}")
    return 0 if verdict.get("passed") else 3


def cmd_constants(args):
    from .harness import constants_cmd, format_constants_table

    document = _load(args.config)
    eps = typed(document.pop("eps", 1e-4), "float", "eps", "constants document")
    summary_path = typed(document.pop("run_summary", None), "str | None", "run_summary",
                         "constants document")
    run_summary = None if summary_path is None else _load(  # an absolute path stays as it is
        Path(args.config).parent / summary_path, "run summary")
    doc = constants_cmd(document, eps, run_summary=run_summary, out_dir=args.out)
    print(format_constants_table(doc))
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {"solve": cmd_solve, "experiment": cmd_experiment,
                "probe": cmd_probe, "constants": cmd_constants}
    try:
        return handlers[args.command](args)
    except StochviError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
