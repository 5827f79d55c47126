"""Simulator workloads: repeated ``simulate_workload`` calls."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.workloads import Measure, direct
from repro.mc.controller import RefreshSettings, TestTrafficSettings
from repro.sim.system import SystemConfig, SystemSimulator, simulate_workload
from repro.traces.spec import benchmark_names, get_benchmark

#: Mixes generated per run; far more than any run consumes.
MIXES = 1000
#: fig15's call pattern per mix and density: (refresh_reduction,
#: concurrent_tests) for baseline, MEMCON 60%, baseline again, MEMCON 75%.
FIG15_PATTERN = ((0.0, 0), (0.60, 256), (0.0, 0), (0.75, 256))


def stratified_mixes(count: int, cores: int, seed: int) -> List[List[str]]:
    """Random mixes of ``cores`` distinct benchmarks, one from each of
    ``cores`` strata of the pool ranked by memory intensity (MPKI).

    Like ``multicore_mixes`` the mixes are seeded draws, but every mix
    holds one benchmark of each intensity band. How long a point takes
    follows the mix's memory traffic, and a run covers only a few dozen
    points, so with free draws the seed's choice of heavy or light mixes
    moved the figures more than the program did.
    """
    ranked = sorted(benchmark_names(),
                    key=lambda name: (get_benchmark(name).mpki, name))
    strata = np.array_split(np.array(ranked), cores)
    rng = np.random.default_rng(seed)
    mixes: List[List[str]] = []
    for _ in range(count):
        mix = [str(rng.choice(stratum)) for stratum in strata]
        mixes.append([mix[int(i)] for i in rng.permutation(cores)])
    return mixes


def result_digest(result: Any) -> str:
    """Stable digest of a ``SystemResult`` (floats by their repr)."""
    text = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class SimWorkload:
    """Repeated ``simulate_workload`` calls over seeded mixes."""

    def __init__(self, cores: int, channels: int,
                 pattern: Tuple[Tuple[float, int], ...],
                 densities: Tuple[int, ...], window_ns: float) -> None:
        self.cores = cores
        self.channels = channels
        self.pattern = pattern  # (refresh_reduction, concurrent_tests)
        self.densities = densities
        self.window_ns = window_ns
        self.calls: List[Dict[str, Any]] = []
        self.done: List[Tuple[Dict[str, Any], str]] = []
        self.next_call = 0
        self.expected: Optional[List[str]] = None
        #: Wraps each simulate_workload call (spans / profiling).
        self.wrap: Callable[..., Any] = direct

    def setup(self, seed: int) -> None:
        mixes = stratified_mixes(MIXES, cores=self.cores, seed=seed)
        self.calls = [
            {"benchmark_names": names, "density_gbit": density,
             "refresh_reduction": reduction, "concurrent_tests": tests,
             "window_ns": self.window_ns, "channels": self.channels,
             "seed": seed + i}
            for i, names in enumerate(mixes)
            for density in self.densities
            for reduction, tests in self.pattern
        ]

    def run_until(self, deadline: float, measure: Measure) -> None:
        """Compute points until the deadline passes, at least one.

        A point is every call of one mix: each density times each entry
        of the pattern, as fig15 makes them for one mix. Its latency is
        one sample and its reads over its time one segment. Calls at
        different densities or refresh settings differ in cost, so a
        median over single calls would fall in the gap between the cheap
        and the dear ones.
        """
        per_point = len(self.densities) * len(self.pattern)
        while not measure.attempted or time.perf_counter() < deadline:
            reads = 0
            elapsed = 0.0
            for _ in range(per_point):
                kwargs = self.calls[self.next_call]
                index = self.next_call
                self.next_call += 1
                measure.attempted += 1
                started = time.perf_counter()
                result = self.wrap("simulate_workload", index,
                                   simulate_workload, **kwargs)
                elapsed += time.perf_counter() - started
                reads += sum(core.reads_completed for core in result.cores)
                digest = result_digest(result)
                self.done.append((kwargs, digest))
                if self.expected is not None \
                        and index < len(self.expected) \
                        and self.expected[index] != digest:
                    measure.fail(f"call {index}: digest {digest} != "
                                 f"expected {self.expected[index]}")
            measure.latencies_s.append(elapsed)
            measure.wall_s += elapsed
            measure.ops += reads
            measure.segments.append((reads, elapsed))

    def check(self, measure: Measure) -> None:
        """Re-run a sample of calls on ``SystemSimulator`` and check the
        controllers' conservation invariants and the result digest."""
        last = len(self.done) - 1
        for index in sorted({min(1, last), last}):
            kwargs, digest = self.done[index]
            measure.attempted += 1
            try:
                self._check_call(kwargs, digest)
            except AssertionError as exc:
                measure.fail(f"call {index}: {exc}")

    @staticmethod
    def _check_call(kwargs: Dict[str, Any], digest: str) -> None:
        config = SystemConfig(
            density_gbit=kwargs["density_gbit"],
            channels=kwargs["channels"],
            refresh=RefreshSettings(reduction=kwargs["refresh_reduction"]),
            test_traffic=TestTrafficSettings(
                concurrent_tests=kwargs["concurrent_tests"]),
        )
        sim = SystemSimulator(
            [get_benchmark(n) for n in kwargs["benchmark_names"]],
            config, seed=kwargs["seed"])
        result = sim.run(kwargs["window_ns"])
        if result_digest(result) != digest:
            raise AssertionError("SystemSimulator result differs from "
                                 "simulate_workload")
        served = issued = 0
        for controller in sim.controllers:
            stats = controller.stats()
            accesses = (stats.reads_served + stats.writes_served
                        + stats.test_requests_served)
            if stats.row_hits + stats.row_misses + stats.row_conflicts \
                    != accesses:
                raise AssertionError(
                    f"channel {controller.channel}: row hits + misses + "
                    f"conflicts != {accesses} accesses")
            served += stats.reads_served
        for core, core_result in zip(sim.cores, result.cores):
            issued += core.outstanding + core_result.reads_completed
        if served > issued:
            raise AssertionError(f"{served} reads completed > {issued} issued")

    def close(self) -> None:
        pass


