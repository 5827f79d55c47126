"""The ``simulate_workload`` memo and the run-end conservation checks."""

import pytest

from repro import obs
from repro.sim import system
from repro.sim.system import (
    SystemConfig,
    SystemSimulator,
    simulate_workload,
)
from repro.traces.spec import get_benchmark

CALL = dict(benchmark_names=["mcf", "gcc"], density_gbit=32,
            refresh_reduction=0.6, concurrent_tests=8,
            window_ns=20_000.0, seed=3)


@pytest.fixture(autouse=True)
def empty_memo():
    system._workload_memo.clear()
    yield
    system._workload_memo.clear()


def _with_registry(fn):
    """Run ``fn`` against a fresh enabled registry; return its snapshot."""
    registry = obs.MetricsRegistry(enabled=True)
    previous = obs.set_registry(registry)
    try:
        fn()
    finally:
        obs.set_registry(previous)
    return registry.snapshot()


class TestMemo:
    def test_hit_returns_equal_but_distinct_result(self):
        first = simulate_workload(**CALL)
        second = simulate_workload(**CALL)
        assert second == first
        assert second is not first
        assert second.cores[0] is not first.cores[0]
        # Callers may mutate what they get back; the memo must not see it.
        second.cores[0].ipc = -1.0
        assert simulate_workload(**CALL) == first

    def test_every_argument_is_part_of_the_key(self):
        simulate_workload(**CALL)
        for name, value in [("benchmark_names", ["gcc", "mcf"]),
                            ("density_gbit", 8),
                            ("refresh_interval_ms", 32.0),
                            ("refresh_reduction", 0.75),
                            ("concurrent_tests", 16),
                            ("window_ns", 20_001.0),
                            ("channels", 2),
                            ("seed", 4)]:
            simulate_workload(**{**CALL, name: value})
        assert len(system._workload_memo) == 9
        # int and float windows give different results (window_ns is
        # reported as given), so they must not share an entry.
        as_int = simulate_workload(**{**CALL, "window_ns": 20_000})
        assert repr(as_int.window_ns) == "20000"

    def test_counters_match_two_real_runs(self):
        def memoised():
            simulate_workload(**CALL)
            simulate_workload(**CALL)

        def real():
            for _ in range(2):
                system._workload_memo.clear()
                simulate_workload(**CALL)

        got = _with_registry(memoised)
        expected = _with_registry(real)
        assert got["counters"] == expected["counters"]
        assert got["counters"]["sim.loop_iterations"] > 0
        assert got["gauges"] == expected["gauges"]
        assert set(got["histograms"]) == set(expected["histograms"])
        for name, data in expected["histograms"].items():
            assert got["histograms"][name]["counts"] == data["counts"]
            assert got["histograms"][name]["total"] == data["total"]
            assert got["histograms"][name]["sum"] == pytest.approx(
                data["sum"])

    def test_entry_recorded_disabled_is_not_replayed_enabled(self):
        simulate_workload(**CALL)  # default registry: disabled
        snapshot = _with_registry(lambda: simulate_workload(**CALL))
        assert snapshot["counters"]["mc.reads_served"] > 0

    def test_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(system, "WORKLOAD_MEMO_SIZE", 2)
        for seed in (1, 2, 1, 3):
            simulate_workload(["tonto"], window_ns=2_000.0, seed=seed)
        keys = list(system._workload_memo)
        assert len(keys) == 2
        # Seed 2 was least recently used when seed 3 arrived.
        assert keys[0].endswith(", 1)") and keys[1].endswith(", 3)")

    def test_tracing_bypasses_the_memo(self):
        simulate_workload(**CALL)
        sink = obs.ListTraceSink()
        previous = obs.set_sink(sink)
        try:
            simulate_workload(**CALL)
            first = len(sink.records)
            simulate_workload(**CALL)
        finally:
            obs.set_sink(previous)
        assert first > 0
        assert len(sink.records) == 2 * first
        assert len(system._workload_memo) == 1


class TestConservation:
    def _simulator(self):
        return SystemSimulator([get_benchmark("mcf")] * 2,
                               SystemConfig(), seed=5)

    def test_clean_run_passes_both_engines(self):
        for engine in ("event", "poll"):
            self._simulator().run(10_000.0, engine=engine)

    def test_corrupted_bank_counter_raises(self):
        simulator = self._simulator()
        simulator.controllers[0].banks[2].activations += 1
        with pytest.raises(RuntimeError, match="bank 2: .*activations"):
            simulator.run(10_000.0)

    def test_corrupted_enqueue_count_raises(self):
        simulator = self._simulator()
        simulator.controllers[0].scheduler.enqueued += 1
        with pytest.raises(RuntimeError, match="enqueued"):
            simulator.run(10_000.0, engine="poll")

    def test_corrupted_core_counter_raises(self):
        simulator = self._simulator()
        simulator.cores[1].reads_issued = -10**6
        with pytest.raises(RuntimeError, match="core 1: .*issued"):
            simulator.run(10_000.0)
