"""Experiment orchestration: JSON configs, replication ensembles, Monte
Carlo statistics, probes, and CSV/JSON persistence.

The config document is a single versioned JSON object; unknown keys are
rejected so a config that runs is a config that is fully understood.
Schema (defaults in parentheses):

    {
      "schema_version": 1,
      "problem":  {"kind": "strongly_monotone" | "linear_svi" |
                   "scaled_monotone" | "constant_noise" | "negative_control",
                   ... generator parameters ...,
                   "set": {"variant": ..., ...}   (strongly_monotone only),
                   "blocks": [n_1, ...]            (single block)},
      "solver":   {"stepsize": float | [floats]   (nonempty),
                   "schedule": {"theta", "mu", "a" (0), "b" (1)} | [per-agent ...],
                   "max_iterations": int,
                   "coordination": "centralized" (default) | "distributed",
                   "master_seed": int (0),
                   "diagnostics": bool (false),
                   "residual_floor": float (1e-24)},
      "replications": int (1),
      "x0": [floats] (origin),
      "merits": {"dgap_a": float, "dgap_b": float}   (off unless both given),
      "rate_fit_window": [k_lo, k_hi]   (optional),
      "epsilon": float > 0              (optional; enables K_eps),
      "threads": int                    (optional; accepted and ignored)
    }

The keys of the document, its ``merits``, the ``solver`` section, a
schedule entry, a ``set``, a constants document and a problem (past
``kind``, ``set`` and ``blocks``) are the parameters of ``_experiment``,
``_merits``, ``SolverConfig``, ``AgentSchedule``, the variant's class in
``projection.VARIANTS``, ``ConstantsInputs`` and the kind's generator
(:func:`~stochvi.errors.from_document`); those without a default
are required, and a value must have the JSON type its annotation names.
A missing or unknown key, or a value of the wrong type, raises
``ConfigError`` naming the key; a value outside its domain a typed error
such as ``InvalidParameters``.

The replications of an experiment advance in lockstep as the rows of
one ``(R, n)`` array (:func:`~stochvi.solver.run`), each row on the streams
of its own index, so no thread count has a meaning.  An integer
``"threads"`` is still accepted and ignored: the benchmark's workload
documents (``perfbench/workloads.py``) all carry ``"threads": 1``, so
rejecting the key would fail every benchmark pass, and documents carrying
it keep loading with the same config hash.
A probe document is a ``kind`` plus the parameters of its ``PROBES``
runner, read the same way; any other key, ``threads`` included, is
rejected, and so is a document missing a required param or holding an
empty grid.

Result CSV columns: k, mean_r2, stderr_r2, mean_dist2, mean_dgap, cum_calls.
The JSON summary carries the config hash, K_eps, the fitted slope, and the
per-iteration arrays needed by the constants cross-check.  Every CSV is
written by :func:`~stochvi.solver.write_table` and every JSON file by
:func:`~stochvi.solver.write_json`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from inspect import signature
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .core import ProblemInstance, SolverConfig, streams, validate
from .errors import (
    ConfigError,
    InvalidParameters,
    OracleFailure,
    check_keys,
    from_document,
    typed,
)
from .merit import d_gap
from .projection import feasible_set_from_config
from .sampling import SampleSchedule, error_decay_probe
from .solver import fejer_audit, martingale_probe, run, write_json, write_table

SCHEMA_VERSION = 1


def problem_from_config(cfg) -> ProblemInstance:
    """Instantiate a built-in problem from its JSON description: its kind's
    generator is called on the other keys (:func:`~stochvi.errors.from_document`),
    after ``blocks`` and the strongly monotone family's ``set`` are taken out."""
    from . import problems as P

    cfg = dict(cfg)
    kind, fset_cfg = typed(cfg.pop("kind", None), "str", "kind", "problem"), cfg.pop("set", None)
    makers = {"strongly_monotone": P.gen_strongly_monotone, "linear_svi": P.gen_linear_svi,
              "scaled_monotone": P.gen_scaled_monotone, "constant_noise": P.gen_constant_noise,
              "negative_control": P.gen_negative_control}
    if kind not in makers:
        raise ConfigError(f"unknown problem kind {kind!r}")
    where = f"problem kind {kind!r}"
    blocks = typed(cfg.pop("blocks", None), "list[int] | None", "blocks", where)
    if kind == "strongly_monotone":  # its feasible set is the document's "set"
        check_keys(cfg, set(cfg) - {"feasible"}, where)
        if fset_cfg is not None:
            cfg["feasible"] = feasible_set_from_config(fset_cfg, "set", where)
    elif fset_cfg is not None:
        raise ConfigError("'set' override is only supported for strongly_monotone")
    problem = from_document(makers[kind], cfg, where)
    return problem if blocks is None else replace(problem, blocks=blocks)


def solver_config_from_config(cfg) -> SolverConfig:
    return from_document(SolverConfig, cfg, "solver", stepsize="np.ndarray",
                         schedule=SampleSchedule.from_config)


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemInstance
    solver: SolverConfig
    replications: int = 1
    x0: np.ndarray | None = None
    dgap_a: float | None = None
    dgap_b: float | None = None
    rate_fit_window: tuple | None = None
    epsilon: float | None = None
    config_hash: str = ""

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        window = self.rate_fit_window
        if window is not None and not (len(window) == 2 and
                                       0 < window[0] < window[1] <= self.solver.max_iterations):
            raise ConfigError("rate_fit_window needs 0 < k_lo < k_hi <= max_iterations")
        if (self.dgap_a is None) != (self.dgap_b is None):
            raise ConfigError("dgap tracking needs both dgap_a and dgap_b")
        if self.epsilon is not None and not self.epsilon > 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon!r}")


def config_hash(document) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def _merits(dgap_a: float | None = None, dgap_b: float | None = None):
    return dgap_a, dgap_b


def _experiment(problem: dict, solver: dict, schema_version: int | None = None,
                replications: int = 1, x0: np.ndarray | None = None, merits: dict = {},
                rate_fit_window: list[int] | None = None, epsilon: float | None = None,
                threads: int | None = None) -> dict:
    """The ``ExperimentConfig`` fields of an experiment document, whose keys
    are this function's parameters; ``threads`` is accepted and ignored
    (see the module docstring)."""
    if schema_version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {schema_version!r}")
    dgap_a, dgap_b = from_document(_merits, merits, "merits")
    return dict(problem=problem_from_config(problem),
                solver=solver_config_from_config(solver),
                replications=replications,
                x0=None if x0 is None else np.asarray(x0, float),
                dgap_a=dgap_a, dgap_b=dgap_b,
                rate_fit_window=None if rate_fit_window is None else tuple(rate_fit_window),
                epsilon=epsilon)


def experiment_from_config(document) -> ExperimentConfig:
    return ExperimentConfig(**from_document(_experiment, document, "experiment config"),
                            config_hash=config_hash(document))


def effective_mean_operator(problem: ProblemInstance, n_samples: int = 100_000,
                            master_seed: int = 987_654_321):
    """Closed-form mean operator, or a frozen-stream batch-mean surrogate.

    Returns (operator, estimated): ``estimated`` is True when the surrogate
    is in use, so outputs can be labeled accordingly.  The surrogate maps
    the rows of its input through one route call, each row on stream
    (0, 0, 1, 0) of its own keyer with ``sample`` a hash of the row.
    """
    if problem.mean_operator is not None:
        return problem.mean_operator, False
    keyed, draw = streams(master_seed), problem.route()

    def surrogate(X):
        X = np.asarray(X, dtype=float)
        points = X.reshape(-1, problem.dimension)
        digests = (hashlib.sha256(x.tobytes()).digest() for x in points)
        rngs = (next(keyed((0,), 0, 1, 0, int.from_bytes(d[:4], "little"))) for d in digests)
        means = draw(rngs, points, n_samples).reshape(X.shape)
        if not np.isfinite(means).all():
            raise OracleFailure("oracle batch mean is not finite")
        return means

    return surrogate, True


@dataclass
class ExperimentResult:
    """Aggregated per-iteration ensemble statistics plus derived quantities."""

    mean_r2: np.ndarray | None
    stderr_r2: np.ndarray | None
    mean_dist2: np.ndarray | None
    mean_dgap: np.ndarray | None
    cum_calls: np.ndarray
    replications: int
    k_eps: int | None
    epsilon: float | None
    nonconvergence: bool
    slope: float | None
    intercept: float | None
    rate_fit_window: tuple | None
    config_hash: str
    merit_mode: str
    traces: list

    def k_eps_for(self, eps: float):
        """First index with mean r^2 <= eps; None when never reached."""
        if self.mean_r2 is None:
            return None
        hits = np.nonzero(self.mean_r2 <= eps)[0]
        return int(hits[0]) if hits.size else None

    def to_csv(self, path):
        n = len(self.cum_calls)
        nan = np.full(n, np.nan)
        write_table(path, {"k": range(n), **{
            name: nan if getattr(self, name) is None else getattr(self, name)
            for name in ("mean_r2", "stderr_r2", "mean_dist2", "mean_dgap")},
            "cum_calls": self.cum_calls})

    def summary(self):
        """The fields :func:`_run_summary` names, arrays and tuples as lists."""
        plain = lambda v: v.tolist() if isinstance(v, np.ndarray) else \
            list(v) if isinstance(v, tuple) else v
        return {name: plain(getattr(self, name)) for name in signature(_run_summary).parameters}


def _run_summary(replications: int | None = None, config_hash: str | None = None,
                 merit_mode: str | None = None, epsilon: float | None = None,
                 k_eps: int | None = None, nonconvergence: bool | None = None,
                 slope: float | None = None, intercept: float | None = None,
                 rate_fit_window: list[int] | None = None,
                 cum_calls: list[int] | None = None, mean_r2: list[float] | None = None,
                 stderr_r2: list[float] | None = None, mean_dist2: list[float] | None = None,
                 mean_dgap: list[float] | None = None):
    """(mean_r2, mean_dist2, rate_fit_window) of an experiment summary, the
    fields ``stochvi constants`` reads back.  Its parameters, each optional,
    are the keys :meth:`ExperimentResult.summary` writes (it reads them
    here), so that :func:`~stochvi.errors.from_document` rejects a summary
    of the wrong shape naming the key."""
    return mean_r2, mean_dist2, rate_fit_window


def fit_loglog_slope(values, window):
    """Least-squares slope/intercept of ln(values[k]) against ln(k) over
    k in [window[0], window[1]]."""
    lo, hi = window
    ks = np.arange(max(lo, 1), hi + 1)
    vals = np.asarray(values, dtype=float)[ks]
    mask = vals > 0
    if mask.sum() < 2:
        return None, None
    slope, intercept = np.polyfit(np.log(ks[mask]), np.log(vals[mask]), 1)
    return float(slope), float(intercept)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the replication ensemble and aggregate per-iteration stats.

    The pair is validated into one run plan, and all R replications run
    from it as one lockstep ensemble, one call of ``run`` with replications
    0..R-1, each row on the streams keyed by its index, so results depend
    only on (master_seed, replication).  The statistics are column means of
    the ensemble's (R, K+1) arrays, in which an early-stopped row holds its
    final value; the D-gap is one ``d_gap`` call on the ensemble's
    iterates, and the calls column is the plan's ``cum_calls``.
    """
    plan = validate(config.problem, config.solver)
    problem, R, K = config.problem, config.replications, config.solver.max_iterations
    ensemble = run(plan, replication=range(R), x0=config.x0)
    T_op, estimated = effective_mean_operator(problem)

    mean_r2 = stderr_r2 = None
    if ensemble.r2 is not None:
        mean_r2 = ensemble.r2.mean(axis=0)
        stderr_r2 = (ensemble.r2.std(axis=0, ddof=1) / math.sqrt(R)) if R > 1 \
            else np.zeros(K + 1)
    mean_dist2 = None if ensemble.dist2 is None else ensemble.dist2.mean(axis=0)
    mean_dgap = None if config.dgap_a is None else d_gap(
        T_op, problem.feasible_set, ensemble.iterates, config.dgap_a, config.dgap_b).mean(axis=0)

    slope = intercept = None
    if config.rate_fit_window is not None and mean_r2 is not None:
        slope, intercept = fit_loglog_slope(mean_r2, config.rate_fit_window)

    result = ExperimentResult(
        mean_r2=mean_r2, stderr_r2=stderr_r2, mean_dist2=mean_dist2,
        mean_dgap=mean_dgap, cum_calls=plan.cum_calls, replications=R,
        k_eps=None, epsilon=config.epsilon, nonconvergence=False,
        slope=slope, intercept=intercept, rate_fit_window=config.rate_fit_window,
        config_hash=config.config_hash,
        merit_mode="estimated" if estimated else "exact",
        traces=ensemble.traces,
    )
    if config.epsilon is not None and mean_r2 is not None:
        result.k_eps = result.k_eps_for(config.epsilon)
        result.nonconvergence = result.k_eps is None
    return result


def _grid(grid, key):
    """A probe's list of batch sizes or horizons; an empty one has no rows
    to give a verdict on."""
    if not grid:
        raise ConfigError(f"{key} must not be empty")
    return grid


def _error_decay(problem: dict, x: np.ndarray, N_grid: list[int], replications: int,
                 master_seed: int = 0):
    rows = error_decay_probe(problem_from_config(problem), np.asarray(x, dtype=float),
                             _grid(N_grid, "N_grid"), replications, master_seed)
    products = [r["product"] for r in rows]
    spread = (max(products) - min(products)) / max(max(products), 1e-300)
    # each row is compared with row 0: the band holds the error of both
    se0 = rows[0]["N"] * rows[0]["stderr"]
    passed = all(abs(r["product"] - products[0])
                 <= 4.0 * math.hypot(r["N"] * r["stderr"], se0) + 1e-12 for r in rows)
    return rows, {"passed": passed, "product_spread": spread}


def _martingale(problem: dict, solver: dict, x: np.ndarray, replications: int):
    res = martingale_probe(validate(problem_from_config(problem),
                                    solver_config_from_config(solver)),
                           np.asarray(x, dtype=float), replications)
    rows = [{"mean_dM": res.mean, "stderr": res.stderr, "replications": res.replications}]
    return rows, {"passed": res.passed, "detail": str(res)}


def _variance_scaling(K_list: list[int], sigma: float, replications: int, L: float = 1.0,
                      master_seed: int = 0):
    from .baselines import variance_scaling_probe

    rows = variance_scaling_probe(_grid(K_list, "K_list"), sigma, L, replications,
                                  master_seed)
    # variance of a Gaussian sample variance: 2 sigma^4 / (R - 1)
    band = 4.0 * math.sqrt(2.0 / (replications - 1))
    passed = all(abs(r[f"var_{w}_emp"] - r[f"var_{w}_exact"])
                 <= max(band * r[f"var_{w}_exact"], 1e-12)
                 for r in rows for w in ("zK", "zbar"))
    return rows, {"passed": passed}


def _fejer_audit(problem: dict, solver: dict, replications: int,
                 x0: np.ndarray | None = None):
    if replications < 1:  # with no path audited the verdict would pass vacuously
        raise InvalidParameters("fejer_audit probe needs at least 1 replication")
    plan = validate(problem_from_config(problem), solver_config_from_config(solver))
    rows = []
    for trace in run(plan, replication=range(replications), x0=x0).traces:
        report = fejer_audit(trace, plan.problem.known_solutions[0])
        rows.append({"replication": trace.replication,
                     "max_rel_violation": report.max_rel_violation,
                     "violations": report.n_violations})
    bad = sum(r["violations"] for r in rows)
    worst = max([0.0] + [r["max_rel_violation"] for r in rows])
    return rows, {"passed": bad == 0, "max_rel_violation": worst, "violations": bad}


def _pm_check(problem: dict, samples: int = 1000, seed: int = 0):
    from .problems import check_pseudo_monotone

    problem = problem_from_config(problem)
    report = check_pseudo_monotone(problem.mean_operator, problem.feasible_set,
                                   samples=samples, seed=seed, n=problem.dimension)
    rows = [{"n_pairs": report.n_pairs, "n_applicable": report.n_applicable,
             "violations": len(report.violations)}]
    return rows, {"passed": report.passed, "detail": str(report)}


class ProbeSpec(NamedTuple):
    """One probe kind: ``runner(**params)`` returns (CSV rows, verdict
    fields), and its parameters are the params a probe document holds
    (:func:`~stochvi.errors.from_document`); ``seed_field`` is the
    (section, key) its seed lives at, section None meaning the top level."""

    runner: Callable
    seed_field: tuple

    @property
    def keys(self):
        return set(signature(self.runner).parameters)


PROBES = {
    "error_decay": ProbeSpec(_error_decay, (None, "master_seed")),
    "martingale": ProbeSpec(_martingale, ("solver", "master_seed")),
    "variance_scaling": ProbeSpec(_variance_scaling, (None, "master_seed")),
    "fejer_audit": ProbeSpec(_fejer_audit, ("solver", "master_seed")),
    "pm_check": ProbeSpec(_pm_check, (None, "seed")),
}


def probe_spec(kind: str) -> ProbeSpec:
    if typed(kind, "str", "kind", "probe config") not in PROBES:
        raise ConfigError(f"unknown probe kind {kind!r}")
    return PROBES[kind]


def probe(kind: str, params: dict, out_dir) -> dict:
    """Run one named probe and persist CSV rows plus a JSON verdict.

    Kinds: ``error_decay`` (1/N law), ``martingale`` (zero-mean increments),
    ``variance_scaling`` (ergodic baseline variance laws), ``fejer_audit``
    (pathwise recursion), ``pm_check`` (pseudo-monotonicity sampling); the
    params each accepts and needs are its ``PROBES`` runner's parameters.
    """
    rows, fields = from_document(probe_spec(kind).runner, params, f"{kind} params")
    out_dir = Path(out_dir)
    if rows:
        write_table(out_dir / f"{kind}.csv", {h: [r[h] for r in rows] for h in rows[0]})
    verdict = {"kind": kind, **fields}
    write_json(out_dir / f"{kind}_verdict.json", verdict)
    return verdict


def constants_inputs_from_config(cfg):
    from .constants import ConstantsInputs

    return from_document(ConstantsInputs, cfg, "constants inputs",
                         schedule=SampleSchedule.from_config)


def constants_cmd(inputs_cfg: dict, eps: float, run_summary: dict | None = None,
                  out_dir=None) -> dict:
    """Full constants report; with a run summary attached, appends the
    empirical-vs-bound direction verdict.  The summary is read against
    :func:`_run_summary`: a key it does not name, or a value of the wrong
    JSON type, raises ``ConfigError`` naming the key."""
    from .constants import (
        c_consistency,
        compare_bound_to_run,
        rate_and_complexity_bounds,
    )

    inputs = constants_inputs_from_config(inputs_cfg)
    mean_r2, mean_dist2, window = (None, None, None) if run_summary is None else \
        from_document(_run_summary, run_summary, "run summary")
    report = rate_and_complexity_bounds(
        inputs, eps, mean_dist2=np.asarray(mean_dist2, dtype=float) if mean_dist2 else None)
    consistency = c_consistency(inputs)
    doc = {
        "inputs": {k: v for k, v in inputs_cfg.items()},
        "eps": eps,
        "bounds": _jsonable(report.as_dict()),
        "c_consistency": {
            "default_c": consistency.default_c,
            "minimal_admissible_c": consistency.minimal_c,
            "holds_with_default": consistency.holds_with_default,
            "threshold_k": consistency.threshold_k,
        },
    }
    if mean_r2 and report.base.rate_Q is not None:
        cmp_res = compare_bound_to_run(inputs, report.base.rate_Q, mean_r2,
                                       k_min=(window or [1])[0] or 1)
        doc["empirical_check"] = {"passed": cmp_res.passed,
                                  "detail": str(cmp_res)}
    if out_dir is not None:
        write_json(Path(out_dir) / "constants_report.json", doc)
    return doc


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj


def format_constants_table(doc) -> str:
    """Human-readable rendering of a constants report document, one line per
    shared bound and per ``family.field``."""
    lines = [f"constants report (eps = {doc['eps']:g})"]
    for key, val in sorted(doc["bounds"].items()):
        rows = ((f"{key}.{field}", v) for field, v in sorted(val.items())) \
            if isinstance(val, dict) else [(key, val)]
        lines += [f"  {name:28s} {v}" for name, v in rows]
    cc = doc["c_consistency"]
    lines.append(f"  c-consistency: default {cc['default_c']} "
                 f"minimal {cc['minimal_admissible_c']:.6g} "
                 f"holds={cc['holds_with_default']}")
    if "empirical_check" in doc:
        lines.append(f"  empirical: {doc['empirical_check']['detail']}")
    return "\n".join(lines)
