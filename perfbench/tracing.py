"""Layer timing from outside the program.

The tracer rebinds public names at the places where their callers look them
up (module globals that hold an imported function, and methods on classes),
records one span per call, and puts every original object back afterwards.
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


def _words_drawn(generator) -> int:
    """64-bit words a Philox4x64 stream has produced so far.

    The counter advances once per block of four words and ``buffer_pos``
    counts the words already taken from the current block (4 before the
    first draw), so words = 4 * counter + buffer_pos - 4.
    """
    state = generator.bit_generator.state
    counter = sum(int(w) << (64 * i) for i, w in enumerate(state["state"]["counter"]))
    return 4 * counter + int(state["buffer_pos"]) - 4


class Rebinder:
    """Replace attributes and restore the exact original objects."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, new):
        # Read from __dict__ so a method is saved as the plain function the
        # class holds, not as a bound or inherited attribute.
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, new)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def capture(rebinder, results: list):
    """Keep the ExperimentResult of each pass; the CLI does not return it."""
    from stochvi import harness

    original = vars(harness)["run_experiment"]

    @functools.wraps(original)
    def run_experiment(config):
        result = original(config)
        results.append(result)
        return result

    rebinder.set(harness, "run_experiment", run_experiment)


def rebind_targets():
    """(owner, attribute, span name, kind) for every traced boundary."""
    from stochvi import core, harness, merit, problems, projection, sampling, solver

    targets = [
        (solver, "derive_stream", "core.derive_stream", "stream"),
        (core, "derive_stream", "core.derive_stream", "stream"),
        (solver, "project", "projection.project", ""),
        (merit, "project", "projection.project", ""),
        (harness, "run", "solver.run", "run"),
        (solver, "natural_residual_sq", "merit.natural_residual_sq", ""),
        (merit, "natural_residual_sq", "merit.natural_residual_sq", ""),
        (solver, "distance_sq_to_solutions", "merit.distance_sq_to_solutions", ""),
        (harness, "validate", "core.validate", ""),
        (solver, "validate", "core.validate", ""),
        (core, "schedule_tail_check", "sampling.schedule_tail_check", ""),
        (sampling.SampleSchedule, "sizes_upto", "sampling.sizes_upto", ""),
        (harness, "experiment_from_config", "harness.experiment_from_config", ""),
        (harness, "run_experiment", "harness.run_experiment", ""),
    ]
    for cls in vars(projection).values():
        if isinstance(cls, type) and issubclass(cls, projection.FeasibleSet) \
                and cls is not projection.FeasibleSet and "project" in vars(cls):
            targets.append((cls, "project", f"projection.{cls.__name__}", ""))
    for cls in (problems.AdditiveGaussianOracle, problems.LinearMatrixNoiseOracle,
                problems.ConstantOracle):
        targets.append((cls, "__call__", "problems.oracle", "oracle"))
        targets.append((cls, "block", "problems.oracle", "oracle"))
    return targets


def original_objects():
    """The objects at every traced name, to check that a restore is exact."""
    return {(id(owner), attr): vars(owner)[attr]
            for owner, attr, _, _ in rebind_targets()}


def all_restored(snapshot) -> bool:
    return all(vars(owner)[attr] is snapshot[(id(owner), attr)]
               for owner, attr, _, _ in rebind_targets())


class Tracer:
    """In-memory spans: (parent, name, group, start, end, value).

    ``group`` is shared by every span of one replication (``p<pass>:r<rep>``)
    and is ``p<pass>`` outside replications.  ``value`` is the draw count of
    an oracle span and ``(steps, final cum_calls)`` of a ``solver.run`` span.
    """

    def __init__(self, pass_index=0):
        self.spans = []
        self.stack = []
        self.pass_group = self.group = f"p{pass_index}"
        self.streams = []
        self.words = defaultdict(int)

    def harvest_streams(self):
        """Sum the words drawn from every stream handed out.  Called after
        the pass, so reading generator states adds to no span."""
        for group, generator in self.streams:
            self.words[group] += _words_drawn(generator)
        self.streams.clear()

    def _wrap(self, name, kind, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        if kind == "":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = len(spans)
                spans.append(None)
                stack.append(sid)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[sid] = (stack[-1] if stack else -1, name, tracer.group,
                                  t0, t1, None)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            value = None
            if kind == "oracle":
                value = int(args[3] if len(args) > 3 else kwargs["size"])
            elif kind == "run":
                tracer.group = f"{tracer.pass_group}:r{kwargs.get('replication', 0)}"
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if kind == "stream":
                    tracer.streams.append((tracer.group, out))
                elif kind == "run":
                    value = (out.n_steps, int(out.cum_calls[-1]))
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (stack[-1] if stack else -1, name, tracer.group,
                              t0, t1, value)
                if kind == "run":
                    tracer.group = tracer.pass_group

        return wrapper

    def install(self, rebinder):
        for owner, attr, name, kind in rebind_targets():
            rebinder.set(owner, attr, self._wrap(name, kind, vars(owner)[attr]))


def layer_metrics(spans, words: int, pass_end: float):
    """Per-layer counts and seconds of one traced pass.

    Self time is a span's duration minus its children's.  Projection and
    oracle totals count only the outermost span of each layer, so a product
    set projecting its factors is one projection call, not four.
    """
    child = [0.0] * len(spans)
    for parent, _, _, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    proj_calls = proj_s = 0
    oracle_calls = oracle_s = draws = 0
    iterations = billed = 0
    run_end = pass_end
    for i, (parent, name, _, t0, t1, value) in enumerate(spans):
        d = t1 - t0
        calls[name] += 1
        total[name] += d
        self_s[name] += d - child[i]
        layer = name.split(".")[0] + "."
        outer = parent < 0 or not spans[parent][1].startswith(layer)
        if layer == "projection." and outer:
            proj_calls += 1
            proj_s += d
        elif name == "problems.oracle" and outer:
            oracle_calls += 1
            oracle_s += d
            draws += value
        elif name == "solver.run":
            iterations += value[0]
            billed += value[1]
        elif name == "harness.run_experiment":
            run_end = t1
    out = {
        "problems.oracle.calls": oracle_calls,
        "problems.oracle.billed_draws": draws,
        "problems.oracle.s": oracle_s,
        "core.rng.words": words,
        "core.rng.words_per_billed_call": words / draws if draws else 0.0,
        "core.derive_stream.calls": calls["core.derive_stream"],
        "core.derive_stream.s": total["core.derive_stream"],
        "solver.run.calls": calls["solver.run"],
        "solver.run.s": total["solver.run"],
        "solver.self_s": self_s["solver.run"],
        "solver.self_us_per_iteration":
            1e6 * self_s["solver.run"] / iterations if iterations else 0.0,
        "solver.iterations": iterations,
        "solver.billed_calls": billed,
        "projection.calls": proj_calls,
        "projection.s": proj_s,
    }
    for cls in ("Box", "Ball", "NonnegativeOrthant", "WholeSpace", "CartesianProduct"):
        out[f"projection.{cls}.calls"] = calls[f"projection.{cls}"]
    for name in ("merit.natural_residual_sq", "merit.distance_sq_to_solutions",
                 "core.validate", "sampling.sizes_upto"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name]
    out["sampling.schedule_tail_check.s"] = total["sampling.schedule_tail_check"]
    out["harness.experiment_from_config.s"] = total["harness.experiment_from_config"]
    out["harness.run_experiment.s"] = total["harness.run_experiment"]
    out["harness.aggregate.s"] = self_s["harness.run_experiment"]
    out["harness.persist.s"] = pass_end - run_end
    detail = {f"{name}.self_s": self_s[name] for name in sorted(self_s)}
    detail.update({f"{name}.s": total[name] for name in sorted(total)})
    return out, detail
