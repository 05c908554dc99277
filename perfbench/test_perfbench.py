"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
import speedref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stochvi import harness, problems  # noqa: E402
from stochvi.sampling import AgentSchedule, SampleSchedule  # noqa: E402


@pytest.mark.parametrize("agent", [
    {"theta": 1, "mu": 3, "a": 0, "b": 1},
    {"theta": 0.7, "mu": 2.5, "a": 0.3, "b": -0.5},
    {"theta": 2, "mu": 10, "a": 0, "b": 0.2},
    {"theta": 1, "mu": 3, "a": 1, "b": -1},
])
def test_sample_count_matches_schedule(agent):
    sched = SampleSchedule((AgentSchedule(agent["theta"], agent["mu"],
                                          agent["a"], agent["b"]),))
    table = sched.sizes_upto(3000)[:, 0]
    assert [workloads.sample_count(agent, k) for k in range(3001)] == table.tolist()


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_expected_calls_match_a_run(workload):
    document = workloads.config_document(workload, seed=5)
    document["replications"] = 1
    document["solver"]["max_iterations"] = 12
    document.pop("rate_fit_window", None)
    result = harness.run_experiment(harness.experiment_from_config(document))
    assert workloads.check_replications(document, result) == []
    assert int(result.traces[0].cum_calls[-1]) == workloads.expected_calls(document, 12)


@pytest.fixture
def small_bench(tmp_path):
    document = workloads.config_document("short_agents", seed=3)
    document["replications"] = 3
    return bench_run.Bench("short_agents", document, tmp_path)


def test_correct_pass_has_no_failures(small_bench):
    small_bench.warm_up()
    first = small_bench.run_pass(small_bench.config_path)
    second = small_bench.run_pass(small_bench.config_path)
    assert (first["failed"], second["failed"]) == (0, 0)
    assert first["digest"] == second["digest"]
    assert first["billed"] == 3 * workloads.expected_calls(small_bench.document, 20)


def test_nan_oracle_counts_every_replication_failed(small_bench):
    def nan_block(self, rng, x, size, sl):
        return np.full((size, len(range(*sl.indices(len(x))))), np.nan)

    with tracing.Rebinder() as rebinder:
        rebinder.set(problems.AdditiveGaussianOracle, "block", nan_block)
        rec = small_bench.run_pass(small_bench.config_path)
    assert rec["failed"] == 3
    assert any("non-finite" in p for p in rec["problems"])


def test_changed_output_fails_the_whole_pass(small_bench):
    small_bench.reference_digest = "a different digest"
    rec = small_bench.run_pass(small_bench.config_path)
    assert rec["failed"] == 3


def test_traced_run_restores_every_name(small_bench):
    snapshot = tracing.original_objects()
    restored = lambda: tracing.all_restored(snapshot)  # noqa: E731
    untraced, traced, layers, checks, spans = bench_run.run_traced(small_bench, 0, restored)
    assert checks == []
    assert restored()
    assert harness.run_experiment is snapshot[(id(harness), "run_experiment")]
    assert all(s is not None for s in spans[0]) and len(spans[0]) > 1000
    metrics = layers[0][0]
    billed = 3 * workloads.expected_calls(small_bench.document, 20)
    assert metrics["problems.oracle.billed_draws"] == metrics["solver.billed_calls"] == billed
    assert metrics["solver.run.calls"] == 3
    assert metrics["projection.Ball.calls"] > 0
    assert [p["digest"] for p in traced] == [p["digest"] for p in untraced]


def test_words_drawn_counts_philox_output():
    gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    assert tracing._words_drawn(gen) == 0
    for n in (1, 3, 4, 9):
        gen.integers(0, 2 ** 62, size=n, dtype=np.int64)
    assert tracing._words_drawn(gen) == 17


def test_tail_percentile_has_ten_samples_beyond():
    assert bench_run.tail(list(range(10))) is None
    pct, value = bench_run.tail([float(v) for v in range(40)])
    assert pct == 75.0 and sum(v > value for v in range(40)) == 10


def test_scaled_time_is_wall_time_at_reference_speed():
    ref = speedref.reference_seconds()
    assert ref > 0
    assert speedref.scaled(3.0, speedref.REFERENCE_S, speedref.REFERENCE_S) == 3.0
    # a machine half as fast doubles both the pass and the kernel
    half = 2 * speedref.REFERENCE_S
    assert speedref.scaled(6.0, half, half) == pytest.approx(3.0)
    assert speedref.scaled(6.0, half, 3 * speedref.REFERENCE_S) == pytest.approx(2.4)
