"""The lockstep ensemble against the serial engine it replaced.

``run(plan, replication=[...])`` advances every replication as one row of
an ``(R, n)`` array, drawing each row from that row's own streams.  Every
row's trace must equal, field by field and bit for bit, the trace of that
replication run by itself one iteration after another
(``reference_impls.serial_run_reference``, the serial engine kept as it
was): on random plans over R, the block layout, the oracle route, the
horizon, diagnostics and a residual floor that stops rows at different k.
"""

import json
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from conftest import default_config
from reference_impls import serial_run_reference
from stochvi.core import validate
from stochvi.errors import InvalidParameters
from stochvi.problems import AdditiveGaussianOracle, gen_linear_svi, gen_strongly_monotone
from stochvi.projection import Ball, Box, CartesianProduct, NonnegativeOrthant
from stochvi.solver import Ensemble, run

FIELDS = ("iterates", "r2", "dist2", "cum_calls", "alphas",
          "z", "eps1_norm", "eps2_norm", "eps2", "A", "M")


def assert_same_trace(ours, ref):
    for name in FIELDS:
        a, b = getattr(ours, name), getattr(ref, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
    assert (ours.replication, ours.stopped_early, ours.n_steps, ours.lipschitz_L) == \
        (ref.replication, ref.stopped_early, ref.n_steps, ref.lipschitz_L)
    assert [s.tobytes() for s in ours.tracked_solutions] == \
        [s.tobytes() for s in ref.tracked_solutions]


def agents():
    """n = 5 on a box, a ball and an orthant, one block per factor."""
    fset = CartesianProduct((Box([-1.0, -1.0], [1.0, 1.0]), Ball([0.0, 0.0], 1.0),
                             NonnegativeOrthant(1)), (2, 2, 1))
    return replace(gen_strongly_monotone(5, seed=3, noise_scale=1.0, center=np.zeros(5),
                                         feasible=fset), blocks=(2, 2, 1))


LAYOUTS = {  # (problem, coordination, stepsize)
    "m1": lambda: (gen_strongly_monotone(3, seed=2, noise_scale=0.8,
                                         center=[0.2, -0.1, 0.3],
                                         feasible=Ball(np.zeros(3), 2.0)), "centralized", 0.25),
    "centralized_m3": lambda: (agents(), "centralized", 0.25),
    "distributed_m3": lambda: (agents(), "distributed", 0.25),
    "linear_m1": lambda: (gen_linear_svi(4, seed=5, noise_scale=0.3), "centralized", None),
}
ORACLES = {
    "exact": lambda p: p,
    "per_draw": lambda p: replace(p, oracle=lambda rng, x, size, o=p.oracle: o(rng, x, size)),
    "no_mean_operator": lambda p: replace(p, mean_operator=None),
}


def plan_for(layout, oracle, diagnostics, rng, floor=True):
    """A random plan of the layout: K in 1..30, a random seed, and, when
    ``floor`` and the problem has T, a residual floor that a pilot ensemble
    crossed at different k."""
    problem, coordination, alpha = LAYOUTS[layout]()
    problem = ORACLES[oracle](problem)
    alpha = alpha or 0.2 / problem.lipschitz_L
    config = default_config(stepsize=alpha, max_iterations=int(rng.integers(1, 31)),
                            master_seed=int(rng.integers(0, 2 ** 40)),
                            coordination=coordination, diagnostics=diagnostics)
    x0 = rng.uniform(0.5, 1.5, problem.dimension)
    plan = validate(problem, config)
    if floor and problem.mean_operator is not None:
        pilot = run(plan, replication=range(8), x0=x0).traces
        cut = np.median([t.r2[len(t.r2) // 2] for t in pilot])
        plan = validate(problem, replace(config, residual_floor=float(cut)))
    return plan, x0


@pytest.mark.parametrize("diagnostics", [False, True], ids=["plain", "diagnostics"])
@pytest.mark.parametrize("oracle", sorted(ORACLES))
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("R", [1, 2, 7])
def test_rows_equal_serial_runs_bitwise(R, layout, oracle, diagnostics):
    case = [R, sorted(LAYOUTS).index(layout), sorted(ORACLES).index(oracle), diagnostics]
    rng = np.random.default_rng(case)
    plan, x0 = plan_for(layout, oracle, diagnostics, rng)
    replications = sorted(rng.choice(50, size=R, replace=False).tolist())
    ensemble = run(plan, replication=replications, x0=x0)
    assert isinstance(ensemble, Ensemble)
    assert [t.replication for t in ensemble.traces] == replications
    for trace, replication in zip(ensemble.traces, replications):
        assert_same_trace(trace, serial_run_reference(plan, replication, x0))
    finals = sum(int(t.cum_calls[-1]) for t in ensemble.traces)
    assert ensemble.cum_calls[-1] == finals
    assert ensemble.n_steps == sum(t.n_steps for t in ensemble.traces)


def test_rows_stop_at_different_k():
    """A short_agents-like ensemble whose rows cross the floor at several
    k: stopped rows draw and bill nothing more (the oracle's own count of
    the sizes it was handed is the ensemble's ``cum_calls``), and every row
    still equals its serial run."""
    seen = []

    class Counted(AdditiveGaussianOracle):
        def block(self, rng, x, size, sl, error=False):
            seen.append(size)
            return super().block(rng, x, size, sl, error)

    base = agents()
    problem = replace(base, oracle=Counted(base.mean_operator, 1.0))
    plan = validate(problem, default_config(coordination="distributed", max_iterations=20,
                                            residual_floor=5e-3, diagnostics=False,
                                            master_seed=901))
    x0 = np.full(5, 1.5)
    ensemble = run(plan, replication=range(30), x0=x0)
    ends = [t.n_steps for t in ensemble.traces]
    assert len(set(ends)) > 2 and all(t.stopped_early for t in ensemble.traces)
    live = [sum(e > k for e in ends) for k in range(max(ends))]
    assert ensemble.cum_calls.tolist() == \
        np.concatenate([[0], np.cumsum(np.diff(plan.cum_calls)[:max(ends)] * live)]).tolist()
    assert sum(seen) == ensemble.cum_calls[-1] == \
        sum(int(t.cum_calls[-1]) for t in ensemble.traces)
    for trace in ensemble.traces:
        assert_same_trace(trace, serial_run_reference(plan, trace.replication, x0))


@pytest.mark.parametrize("layout", ["m1", "distributed_m3"])
def test_ensemble_arrays_hold_stopped_rows_and_traces_view_them(layout):
    """The ensemble's (R, K+1) arrays hold a stopped row at its final
    iterate, r^2 and dist2 to K; each trace is its row up to its own
    steps, and views the plan's read-only tables instead of copying them."""
    rng = np.random.default_rng(11)
    plan, x0 = plan_for(layout, "exact", False, rng)
    plan = validate(plan.problem, replace(plan.config, max_iterations=30))
    cut = float(np.median(run(plan, replication=range(8), x0=x0).r2[:, 15]))
    plan = validate(plan.problem, replace(plan.config, residual_floor=cut))
    ensemble = run(plan, replication=range(8), x0=x0)
    K, n = 30, plan.problem.dimension
    assert ensemble.iterates.shape == (8, K + 1, n)
    assert ensemble.r2.shape == ensemble.dist2.shape == (8, K + 1)
    ends = [t.n_steps for t in ensemble.traces]
    assert min(ends) < K and len(set(ends)) > 2
    for row, trace in enumerate(ensemble.traces):
        m = trace.n_steps
        for name in ("iterates", "r2", "dist2"):
            held = getattr(ensemble, name)[row]
            assert getattr(trace, name).tobytes() == held[:m + 1].tobytes(), name
            assert np.shares_memory(getattr(trace, name), held), name
            assert (held[m:] == held[m]).all(), name
        for name in ("cum_calls", "alphas"):
            table = getattr(trace, name)
            assert np.shares_memory(table, getattr(plan, name)) and not table.flags.writeable


def test_one_replication_is_the_one_row_ensemble():
    rng = np.random.default_rng(3)
    plan, x0 = plan_for("distributed_m3", "exact", True, rng)
    for replication in (0, 4, np.int64(9)):
        trace = run(plan, replication=replication, x0=x0)
        assert_same_trace(trace, run(plan, replication=[replication], x0=x0).traces[0])


@pytest.mark.parametrize("layout", ["m1", "distributed_m3"])
def test_row_order_and_company_change_no_bit(layout):
    """Without a floor every row runs to K, on the path that writes all
    rows at once."""
    rng = np.random.default_rng(4)
    plan, x0 = plan_for(layout, "exact", True, rng, floor=False)
    alone = {r: serial_run_reference(plan, r, x0) for r in (2, 5, 11)}
    for order in product((2, 5, 11), repeat=2):
        if len(set(order)) == 2:
            for trace in run(plan, replication=order, x0=x0).traces:
                assert_same_trace(trace, alone[trace.replication])


def test_numpy_indices_give_python_ints():
    """A trace's summary is written as JSON, which cannot hold numpy's
    integers, so ``np.arange(R)`` gives the traces of ``range(R)``."""
    rng = np.random.default_rng(6)
    plan, x0 = plan_for("m1", "exact", False, rng, floor=False)
    ensemble = run(plan, replication=np.arange(3), x0=x0)
    assert [type(t.replication) for t in ensemble.traces] == [int] * 3
    assert json.loads(json.dumps([t.summary() for t in ensemble.traces])) == \
        [t.summary() for t in run(plan, replication=range(3), x0=x0).traces]
    assert type(run(plan, replication=np.int64(2), x0=x0).replication) is int


def test_no_replication_is_rejected():
    rng = np.random.default_rng(5)
    plan, x0 = plan_for("m1", "exact", False, rng, floor=False)
    with pytest.raises(InvalidParameters, match="at least one replication"):
        run(plan, replication=[], x0=x0)
