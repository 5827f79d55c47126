"""Equivalence tests: the event-heap engine vs the poll-loop oracle.

``SystemSimulator.run(engine="event")`` must be bit-identical to the
retired cycle-polling loop (``engine="poll"``, kept as the reference
implementation — the same oracle pattern the vectorised fault engine
uses): identical ``SystemResult``s and identical traced event streams
across randomized configurations, including the benchmark's shapes and
activation tracking / TRR. The one intentional divergence is
backpressure fairness, covered by its own regression test and pinned by
a fixed golden result.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.mc.controller import RefreshSettings, TestTrafficSettings
from repro.mc.rowrefresh import RowRefreshSettings, TrrSettings
from repro.mc.scheduler import FrFcfsScheduler, SchedulerConfig
from repro.sim.core import CoreConfig
from repro.sim.system import SystemConfig, SystemSimulator
from repro.traces.spec import benchmark_names, get_benchmark

BENCH_POOL = ["mcf", "tonto", "libquantum", "gcc"]


def _config(channels, tests, reduction, row_refresh, density=8, **extra):
    return SystemConfig(
        density_gbit=density,
        channels=channels,
        refresh=RefreshSettings(base_interval_ms=16.0, reduction=reduction),
        test_traffic=TestTrafficSettings(concurrent_tests=tests),
        row_refresh=(
            RowRefreshSettings(hi_rows=2048, lo_rows=30720)
            if row_refresh else None
        ),
        **extra,
    )


def _run(engine, bench_names, config, seed, window_ns, traced=False):
    """One fresh simulator run; returns (result dict, trace records)."""
    benchmarks = [get_benchmark(name) for name in bench_names]
    simulator = SystemSimulator(benchmarks, config, seed=seed)
    records = []
    if traced:
        sink = obs.ListTraceSink()
        previous = obs.set_sink(sink)
        try:
            result = simulator.run(window_ns, engine=engine)
        finally:
            obs.set_sink(previous)
        records = sink.records
    else:
        result = simulator.run(window_ns, engine=engine)
    return (
        {
            "window_ns": result.window_ns,
            "cores": [asdict(core) for core in result.cores],
            "refreshes_issued": result.refreshes_issued,
            "refresh_busy_fraction": result.refresh_busy_fraction,
            "row_hit_rate": result.row_hit_rate,
        },
        records,
    )


class TestEngineMatchesOracle:
    @settings(max_examples=12, deadline=None)
    @given(
        benches=st.lists(st.sampled_from(BENCH_POOL), min_size=1, max_size=3),
        channels=st.integers(1, 2),
        tests=st.sampled_from([0, 2]),
        reduction=st.sampled_from([0.0, 0.6]),
        row_refresh=st.booleans(),
        seed=st.integers(0, 2**16),
        window_us=st.integers(5, 20),
    )
    def test_results_identical(
        self, benches, channels, tests, reduction, row_refresh, seed, window_us
    ):
        window_ns = window_us * 1_000.0
        config = _config(channels, tests, reduction, row_refresh)
        expected, _ = _run("poll", benches, config, seed, window_ns)
        got, _ = _run("event", benches, config, seed, window_ns)
        assert got == expected

    @settings(max_examples=6, deadline=None)
    @given(
        benches=st.lists(st.sampled_from(BENCH_POOL), min_size=1, max_size=2),
        channels=st.integers(1, 2),
        tests=st.sampled_from([0, 2]),
        seed=st.integers(0, 2**16),
    )
    def test_traced_streams_identical(self, benches, channels, tests, seed):
        config = _config(channels, tests, 0.0, row_refresh=False)
        expected, expected_records = _run(
            "poll", benches, config, seed, 10_000.0, traced=True
        )
        got, got_records = _run(
            "event", benches, config, seed, 10_000.0, traced=True
        )
        assert got == expected
        assert got_records == expected_records

    @settings(max_examples=8, deadline=None)
    @given(
        benches=st.lists(st.sampled_from(BENCH_POOL), min_size=1, max_size=2),
        channels=st.integers(1, 2),
        tests=st.sampled_from([0, 2]),
        seed=st.integers(0, 2**16),
        window_us=st.integers(5, 20),
    )
    def test_activation_streams_identical(
        self, benches, channels, tests, seed, window_us
    ):
        """Both engines feed the disturbance channel the same ACT stream:
        per-row counts *and* open-interval on-times must match exactly."""
        window_ns = window_us * 1_000.0
        config = SystemConfig(
            channels=channels,
            refresh=RefreshSettings(base_interval_ms=16.0),
            test_traffic=TestTrafficSettings(concurrent_tests=tests),
            track_activations=True,
        )
        benchmarks = [get_benchmark(name) for name in benches]
        snapshots = {}
        for engine in ("poll", "event"):
            simulator = SystemSimulator(benchmarks, config, seed=seed)
            simulator.run(window_ns, engine=engine)
            snapshots[engine] = simulator.activation_snapshot(window_ns)
        assert snapshots["event"] == snapshots["poll"]

    def test_activation_stream_nonempty_and_identical_for_mcf(self):
        # Deterministic anchor for the property above: a memory-heavy
        # workload over a real window must produce a non-trivial stream.
        config = SystemConfig(
            test_traffic=TestTrafficSettings(concurrent_tests=8),
            track_activations=True,
        )
        snapshots = {}
        for engine in ("poll", "event"):
            simulator = SystemSimulator(
                [get_benchmark("mcf")], config, seed=7,
            )
            simulator.run(50_000.0, engine=engine)
            snapshots[engine] = simulator.activation_snapshot(50_000.0)
        assert snapshots["event"] == snapshots["poll"]
        assert len(snapshots["event"]) > 10
        assert any(on > 0.0 for _, on in snapshots["event"].values())

    def test_zero_request_window_identical(self):
        # A window shorter than any core's first arrival: the engines
        # must agree on a run where only refresh events exist.
        config = SystemConfig(core=CoreConfig())
        expected, _ = _run("poll", ["tonto"], config, 3, 50.0)
        got, _ = _run("event", ["tonto"], config, 3, 50.0)
        assert got == expected
        assert all(core["reads_completed"] == 0 for core in got["cores"])

    def test_unknown_engine_rejected(self):
        simulator = SystemSimulator([get_benchmark("mcf")], SystemConfig())
        with pytest.raises(ValueError):
            simulator.run(1_000.0, engine="cycle")


class TestBenchmarkShapes:
    """The shapes the perf benchmark drives (perfbench/workloads.py):
    fig15's 4-core calls with 256 concurrent tests, and 8-core mixes over
    4 channels, at both densities and over the whole benchmark pool."""

    @settings(max_examples=10, deadline=None)
    @given(
        benches=st.lists(st.sampled_from(benchmark_names()),
                         min_size=4, max_size=4),
        reduction=st.sampled_from([0.60, 0.75]),
        density=st.sampled_from([8, 32]),
        seed=st.integers(0, 2**16),
    )
    def test_memcon_4core_with_tests(self, benches, reduction, density, seed):
        config = _config(1, 256, reduction, False, density=density)
        expected, _ = _run("poll", benches, config, seed, 12_500.0)
        got, _ = _run("event", benches, config, seed, 12_500.0)
        assert got == expected

    @settings(max_examples=6, deadline=None)
    @given(
        benches=st.lists(st.sampled_from(benchmark_names()),
                         min_size=8, max_size=8),
        density=st.sampled_from([8, 32]),
        seed=st.integers(0, 2**16),
    )
    def test_8core_4channel(self, benches, density, seed):
        config = _config(4, 0, 0.0, False, density=density)
        expected, _ = _run("poll", benches, config, seed, 12_500.0)
        got, _ = _run("event", benches, config, seed, 12_500.0)
        assert got == expected


class TestActivationTrackingAndTrr:
    """The drain's hoisted rare branches: ACT logging and TRR, whose
    mitigations occupy banks mid-run and, with forensics on, emit
    ``trr_refresh`` ledger records."""

    @settings(max_examples=6, deadline=None)
    @given(
        benches=st.lists(st.sampled_from(BENCH_POOL), min_size=1, max_size=3),
        channels=st.integers(1, 2),
        threshold=st.sampled_from([2, 4, 16]),
        radius=st.integers(1, 2),
        seed=st.integers(0, 2**16),
    )
    def test_trr_results_and_snapshots_identical(
        self, benches, channels, threshold, radius, seed
    ):
        config = _config(channels, 2, 0.0, False,
                         trr=TrrSettings(threshold=threshold,
                                         neighbor_radius=radius))
        outputs = {}
        for engine in ("poll", "event"):
            benchmarks = [get_benchmark(name) for name in benches]
            simulator = SystemSimulator(benchmarks, config, seed=seed)
            result = simulator.run(10_000.0, engine=engine)
            outputs[engine] = (
                asdict(result),
                simulator.activation_snapshot(10_000.0),
                [controller.trr.triggers
                 for controller in simulator.controllers],
            )
        assert outputs["event"] == outputs["poll"]

    def test_trr_forensic_stream_identical(self):
        # Row-granularity refresh on too: its ticks also move the banks.
        config = _config(1, 8, 0.0, True, track_activations=True,
                         trr=TrrSettings(threshold=2))
        previous = obs.set_forensics(True)
        try:
            expected, expected_records = _run(
                "poll", ["mcf", "libquantum"], config, 9, 10_000.0,
                traced=True)
            got, got_records = _run(
                "event", ["mcf", "libquantum"], config, 9, 10_000.0,
                traced=True)
        finally:
            obs.set_forensics(previous)
        assert got == expected
        assert got_records == expected_records
        kinds = {record["kind"] for record in got_records}
        assert {"trr_refresh", "mc_request"} <= kinds


class TestHoldbackFairness:
    """The per-core holdback fix: backpressure must not starve cores.

    The poll loop's global ``while not holdback`` guard stopped polling
    *every* later core once one request was refused; the event engine
    gives each core its own holdback queue.
    """

    def _run_congested(self, engine):
        registry = obs.MetricsRegistry(enabled=True)
        previous = obs.set_registry(registry)
        try:
            benchmarks = [get_benchmark("mcf")] * 4
            simulator = SystemSimulator(benchmarks, SystemConfig(), seed=11)
            # Near-zero queue capacity forces refusals under 4 mcf cores.
            # (Built after set_registry: schedulers bind counters at init.)
            for controller in simulator.controllers:
                controller.scheduler = FrFcfsScheduler(SchedulerConfig(
                    write_queue_drain_threshold=2,
                    read_queue_capacity=2,
                    write_queue_capacity=2,
                ))
            result = simulator.run(100_000.0, engine=engine)
        finally:
            obs.set_registry(previous)
        rejected = registry.counter("mc.sched.rejected").value
        return result, rejected

    def test_backpressure_reaches_every_core(self):
        result, rejected = self._run_congested("event")
        assert rejected > 0, "config failed to trigger backpressure"
        # The fix's guarantee: no core is starved outright.
        for core in result.cores:
            assert core.reads_completed > 0

    def test_poll_oracle_starves_later_cores(self):
        # Documents the defect the fix removes: under the same load the
        # global-holdback loop never lets the last cores issue at all.
        event_result, _ = self._run_congested("event")
        poll_result, _ = self._run_congested("poll")
        poll_reads = [core.reads_completed for core in poll_result.cores]
        event_reads = [core.reads_completed for core in event_result.cores]
        assert min(poll_reads) == 0
        assert min(event_reads) > min(poll_reads)

    def test_congested_run_matches_golden(self):
        # The engines legitimately differ under backpressure, so the
        # oracle cannot check this regime; a fixed golden result (from
        # the event engine before the drain loop was fused) does.
        result, rejected = self._run_congested("event")
        assert rejected == 319993
        assert asdict(result) == {
            "window_ns": 100000.0,
            "cores": [
                {"benchmark": "mcf", "instructions": 148328.01957166824,
                 "ipc": 0.3708200489291706, "reads_completed": 7455,
                 "mean_read_latency_ns": 45376.37703781081},
                {"benchmark": "mcf", "instructions": 3247.299593410709,
                 "ipc": 0.008118248983526772, "reads_completed": 157,
                 "mean_read_latency_ns": 49606.94350291718},
                {"benchmark": "mcf", "instructions": 872.0162947605777,
                 "ipc": 0.0021800407369014442, "reads_completed": 43,
                 "mean_read_latency_ns": 62819.47405339474},
                {"benchmark": "mcf", "instructions": 153.9341628043628,
                 "ipc": 0.00038483540701090706, "reads_completed": 11,
                 "mean_read_latency_ns": 46083.92856511446},
            ],
            "refreshes_issued": 51,
            "refresh_busy_fraction": 0.1785,
            "row_hit_rate": 0.31660866202629545,
        }
