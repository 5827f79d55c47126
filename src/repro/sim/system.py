"""Full-system performance simulation (paper §6.2, Table 2 configuration).

Glues N trace-driven cores to one memory controller and runs the whole
thing event-to-event. The refresh policy under evaluation is expressed as
a :class:`~repro.mc.controller.RefreshSettings` (baseline interval plus
the refresh-operation reduction the mechanism achieves) and, for MEMCON,
a :class:`~repro.mc.controller.TestTrafficSettings` describing the
injected testing requests — the same modelling methodology the paper uses
for its Figure 15/16 and Table 3 studies.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..dram.timing import DDR3_1600, TimingParameters, trfc_for_density_ns
from ..mc.controller import (
    MemoryController,
    RefreshSettings,
    TestTrafficSettings,
)
from ..mc.request import Request, RequestKind
from ..mc.rowrefresh import RowRefreshScheduler, RowRefreshSettings, TrrSettings
from ..traces.spec import BenchmarkProfile, get_benchmark
from .core import CoreConfig, TraceCore
from .energy import energy_of_run


@dataclass
class SystemConfig:
    """The paper's Table 2 system, parameterised by chip density.

    ``channels`` extends the paper's single-channel DIMM: each channel is
    an independent controller + rank, and request streams interleave
    across channels on row-locality breaks.
    """

    banks: int = 8
    rows_per_bank: int = 32768
    density_gbit: int = 8
    channels: int = 1
    core: CoreConfig = field(default_factory=CoreConfig)
    refresh: RefreshSettings = field(default_factory=RefreshSettings)
    test_traffic: TestTrafficSettings = field(default_factory=TestTrafficSettings)
    #: Row-granularity refresh population; replaces all-bank REF when set.
    row_refresh: Optional[RowRefreshSettings] = None
    #: Record per-row ACT counts and open-row on-time (the read-disturbance
    #: channel's input). Off by default: untracked runs are bit-identical.
    track_activations: bool = False
    #: Counter-based target-row-refresh mitigation; implies tracking.
    trr: Optional[TrrSettings] = None

    def __post_init__(self) -> None:
        if self.channels <= 0:
            raise ValueError("channels must be positive")

    def timing(self) -> TimingParameters:
        return DDR3_1600.with_density(self.density_gbit)


@dataclass
class CoreResult:
    """Per-core outcome of one simulation."""

    benchmark: str
    instructions: float
    ipc: float
    reads_completed: int
    mean_read_latency_ns: float


@dataclass
class SystemResult:
    """Outcome of one simulation run."""

    window_ns: float
    cores: List[CoreResult]
    refreshes_issued: int
    refresh_busy_fraction: float
    row_hit_rate: float

    @property
    def total_instructions(self) -> float:
        return sum(core.instructions for core in self.cores)

    @property
    def mean_ipc(self) -> float:
        return sum(core.ipc for core in self.cores) / len(self.cores)

    def weighted_speedup_vs(self, baseline: "SystemResult") -> float:
        """Sum of per-core IPC ratios against a baseline run.

        A zero-IPC baseline core makes the metric undefined; silently
        dropping it would shrink the sum and understate every mechanism
        compared against that baseline, so it is rejected instead.
        """
        if len(self.cores) != len(baseline.cores):
            raise ValueError("core counts differ")
        for i, ref in enumerate(baseline.cores):
            if ref.ipc <= 0:
                raise ValueError(
                    f"baseline core {i} ({ref.benchmark}) has zero IPC; "
                    "weighted speedup is undefined"
                )
        return sum(
            mine.ipc / ref.ipc
            for mine, ref in zip(self.cores, baseline.cores)
        )


class SystemSimulator:
    """Event-driven simulation of cores + memory controller."""

    def __init__(
        self,
        benchmarks: Sequence[BenchmarkProfile],
        config: Optional[SystemConfig] = None,
        seed: int = 0,
    ) -> None:
        if not benchmarks:
            raise ValueError("need at least one benchmark")
        self.config = config or SystemConfig()
        timing = self.config.timing()
        # Controllers append each read they service; run() delivers them.
        self._completed_reads: List[Request] = []
        self._reads_done: Dict[int, List[Request]] = {
            i: [] for i in range(len(benchmarks))
        }
        # Test traffic is spread across channels; the division remainder
        # goes to the first channels so no configured test is dropped.
        total_tests = self.config.test_traffic.concurrent_tests
        base, extra = divmod(total_tests, self.config.channels)
        per_channel_tests = [
            TestTrafficSettings(
                concurrent_tests=base + (1 if channel < extra else 0),
                window_ms=self.config.test_traffic.window_ms,
                requests_per_test=self.config.test_traffic.requests_per_test,
            )
            for channel in range(self.config.channels)
        ]
        self.controllers = [
            MemoryController(
                timing=timing,
                banks=self.config.banks,
                rows_per_bank=self.config.rows_per_bank,
                refresh=self.config.refresh,
                test_traffic=per_channel_tests[channel],
                on_read_complete=self._completed_reads.append,
                row_refresh=(
                    RowRefreshScheduler(
                        self.config.row_refresh, timing, self.config.banks
                    )
                    if self.config.row_refresh is not None else None
                ),
                seed=seed + 1009 * channel,
                channel=channel,
                track_activations=self.config.track_activations,
                trr=self.config.trr,
            )
            for channel in range(self.config.channels)
        ]
        self.cores = [
            TraceCore(
                core_id=i,
                benchmark=bench,
                config=self.config.core,
                banks=self.config.banks,
                rows_per_bank=self.config.rows_per_bank,
                channels=self.config.channels,
                seed=seed + 101 * i,
            )
            for i, bench in enumerate(benchmarks)
        ]

    @property
    def controller(self) -> MemoryController:
        """The first channel's controller (single-channel convenience)."""
        return self.controllers[0]

    def activation_snapshot(
        self, now_ns: float
    ) -> Dict[int, Tuple[int, float]]:
        """Module-flat aggressor counters: ``flat row -> (acts, on_ns)``.

        Flat index = ``(channel * banks + bank) * rows_per_bank + row``,
        so physical neighbourhoods never straddle a bank: in-bank
        neighbours are adjacent flat indices and bank edges fall on
        ``rows_per_bank`` multiples (the disturbance model masks pairs
        crossing those edges). Requires ``track_activations`` (or TRR).
        """
        rows_per_bank = self.config.rows_per_bank
        flat: Dict[int, tuple] = {}
        for controller in self.controllers:
            for bank_index, (counts, on_ns) in enumerate(
                controller.activation_snapshot(now_ns)
            ):
                base = (
                    controller.channel * self.config.banks + bank_index
                ) * rows_per_bank
                for row, acts in counts.items():
                    flat[base + row] = (acts, on_ns.get(row, 0.0))
        return flat

    # ------------------------------------------------------------------
    @obs.timed("sim.run")
    def run(self, window_ns: float, engine: str = "event") -> SystemResult:
        """Simulate ``window_ns`` of wall-clock time and report results.

        ``engine`` selects the inner loop: ``"event"`` (default) is the
        heap-scheduled discrete-event engine; ``"poll"`` is the retired
        cycle-polling loop, kept verbatim as the equivalence oracle.
        Either way the run ends with :meth:`check_conservation`.
        """
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        if engine == "poll":
            result = self._reference_run(window_ns)
            self.check_conservation()
            return result
        if engine != "event":
            raise ValueError(f"unknown engine {engine!r}")

        c_iterations = obs.get_registry().counter("sim.loop_iterations")
        controllers = self.controllers
        cores = self.cores
        n_channels = len(controllers)
        n_cores = len(cores)
        tck = controllers[0].timing.tCK
        completed = self._completed_reads
        reads_done = self._reads_done
        enqueue = [controller.scheduler.enqueue for controller in controllers]
        drains = [controller.drain for controller in controllers]
        limits = [core.config.max_outstanding for core in cores]

        # Actors post their next-ready times on an event heap and are
        # visited only when due; time jumps straight to the earliest
        # posted time (floored at now + tCK, the poll loop's advance
        # rule). Each iteration touches only the due actors — its cost
        # follows the work at that instant, not the number of cores and
        # channels.
        #
        # The heap is sim.events.EventHeap's protocol inlined over
        # integer actors: core i -> i, channel ch -> n_cores + ch, which
        # keeps the tiebreak at equal times (all cores before all
        # controllers, each group by index). Entries are (time, actor,
        # token); token[actor] is the token of the actor's one live entry,
        # 0 when it has none, and any other entry is stale and dropped
        # when it reaches the top.
        heap: List[Tuple[float, int, int]] = []
        token = [0] * (n_cores + n_channels)
        issued = 0  # the last token handed out
        hints: List[Optional[float]] = []
        for i, core in enumerate(cores):
            hint = core.next_arrival_hint(0.0)
            hints.append(hint)
            if hint is not None:
                issued += 1
                token[i] = issued
                heappush(heap, (hint, i, issued))
        for channel in range(n_channels):
            # Every controller is due at t=0.
            issued += 1
            token[n_cores + channel] = issued
            heappush(heap, (0.0, n_cores + channel, issued))
        # Per-core backpressure queues (the fairness fix: a refused
        # request stalls only its own core, not every later-index core).
        holdback: List[List[Request]] = [[] for _ in cores]
        blocked = 0  # cores with a pending refused request

        now = 0.0
        iterations = 0
        max_iterations = int(window_ns * 50)  # safety net, never binding
        while now < window_ns:
            iterations += 1
            if iterations > max_iterations:
                raise RuntimeError("simulator failed to make progress")
            due_cores: List[int] = []
            due_channels: List[int] = []
            while heap and heap[0][0] <= now:
                _, actor, entry_token = heappop(heap)
                if token[actor] == entry_token:
                    token[actor] = 0  # consumed
                    if actor < n_cores:
                        due_cores.append(actor)
                    else:
                        due_channels.append(actor - n_cores)
            fed: List[int] = []  # channels that accepted a request

            # --- Cores, in id order: retry refused requests, then issue
            # every request that is due.
            if blocked:
                ids = set(due_cores)
                for i in range(n_cores):
                    if holdback[i]:
                        ids.add(i)
                core_ids: Sequence[int] = sorted(ids)
            elif len(due_cores) > 1:
                due_cores.sort()
                core_ids = due_cores
            else:
                core_ids = due_cores
            for i in core_ids:
                queue = holdback[i]
                if queue:
                    while queue:
                        request = queue[0]
                        if enqueue[request.channel](request):
                            fed.append(request.channel)
                            queue.pop(0)
                        else:
                            break
                    if queue:
                        continue  # still backpressured; no new requests
                    blocked -= 1
                hint = hints[i]
                if hint is None:
                    continue
                if hint > now:
                    # Not actually due (blocked-path visit or a stale
                    # wake-up); make sure the arrival stays posted.
                    if not token[i]:
                        issued += 1
                        token[i] = issued
                        heappush(heap, (hint, i, issued))
                    continue
                # Due and not stalled: issue until the core stalls, its
                # next request lies in the future, or a queue refuses.
                core = cores[i]
                limit = limits[i]
                while True:
                    request = core.issue()
                    channel = request.channel
                    if enqueue[channel](request):
                        fed.append(channel)
                    else:
                        queue.append(request)
                        blocked += 1
                        break
                    if core.outstanding >= limit or core.issue_at > now:
                        break
                hint = core.issue_at if core.outstanding < limit else None
                hints[i] = hint
                if hint is not None:
                    issued += 1
                    token[i] = issued
                    heappush(heap, (hint, i, issued))

            # --- Controllers, in channel order: drain every due or
            # freshly-fed channel. `floor_base` tracks the last instant
            # any drain processed: the poll loop applied its tCK floor
            # per instant, and that composition is observable, so the
            # outer advance must respect it.
            floor_base = now
            if fed:
                due_channels = sorted(set(due_channels).union(fed))
            elif len(due_channels) > 1:
                due_channels.sort()
            multi = len(due_channels) > 1
            for channel in due_channels:
                actor = n_cores + channel
                if blocked or multi:
                    # Single-step: refused requests retry at tick cadence,
                    # and channels acting at the same instant constrain
                    # each other to the merged instant grid. (Any read
                    # completion lies beyond now + tCK, so completions
                    # never tighten this bound.)
                    bound = now + tck
                else:
                    # Sole actor: run ahead until the earliest posted
                    # event elsewhere (core arrivals + peer channels —
                    # exactly the live heap minus this channel's entry,
                    # which the drain supersedes anyway).
                    token[actor] = 0
                    while heap and token[heap[0][1]] != heap[0][2]:
                        heappop(heap)
                    bound = heap[0][0] if heap else window_ns
                    if bound > window_ns:
                        bound = window_ns
                next_event, last_instant = drains[channel](now, bound)
                issued += 1
                token[actor] = issued
                heappush(heap, (next_event, actor, issued))
                if last_instant > floor_base:
                    floor_base = last_instant

            # --- Deliver completed reads to their cores (service order).
            if completed:
                affected = set()
                for request in completed:
                    i = request.core
                    cores[i].complete_read(request, request.completion_ns)
                    reads_done[i].append(request)
                    affected.add(i)
                completed.clear()
                for i in affected:
                    core = cores[i]
                    hint = core.issue_at if core.outstanding < limits[i] else None
                    hints[i] = hint
                    if hint is not None:
                        issued += 1
                        token[i] = issued
                        heappush(heap, (hint, i, issued))
                    else:
                        token[i] = 0

            # --- Advance to the next posted event, floored one tCK past
            # the last instant processed this iteration. While a refused
            # request is older than `now` the poll loop crawled
            # tick-by-tick; mirror that so retry timing is preserved.
            floor = floor_base + tck
            if blocked and any(
                holdback[i] and hints[i] is not None and hints[i] <= now
                for i in range(n_cores)
            ):
                step_to = floor
            else:
                while heap and token[heap[0][1]] != heap[0][2]:
                    heappop(heap)
                step_to = heap[0][0] if heap else floor
            now = step_to if step_to > floor else floor

        c_iterations.inc(iterations)
        result = self._collect_result(window_ns)
        self.check_conservation()
        return result

    def check_conservation(self) -> None:
        """Run-end accounting identities, O(banks + cores) per run.

        Every controller served or still holds each request it accepted,
        every bank's activations are its row misses plus conflicts, and
        no core completed more reads than it issued. Raises
        ``RuntimeError`` naming the first identity that fails.
        """
        for controller in self.controllers:
            controller.check_conservation()
        for core in self.cores:
            completed = len(self._reads_done[core.core_id])
            if completed > core.reads_issued:
                raise RuntimeError(
                    f"core {core.core_id}: {completed} reads completed > "
                    f"{core.reads_issued} issued"
                )

    def _reference_run(self, window_ns: float) -> SystemResult:
        """The retired cycle-polling loop, kept as the equivalence oracle.

        Polls every core and ticks every controller each iteration —
        including the historical global-holdback behaviour in which one
        refused request stops polling all remaining cores. Used by the
        engine-equivalence property suite and the BENCH_sim benchmarks;
        not a supported production path.
        """
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        c_iterations = obs.get_registry().counter("sim.loop_iterations")
        now = 0.0
        guard = 0
        max_iterations = int(window_ns * 50)  # safety net, never binding
        holdback: List[Request] = []  # requests refused by a full queue
        tck = self.controllers[0].timing.tCK
        while now < window_ns:
            guard += 1
            c_iterations.inc()
            if guard > max_iterations:
                raise RuntimeError("simulator failed to make progress")
            # Retry requests that a full queue refused earlier.
            holdback = [
                r for r in holdback
                if not self.controllers[r.channel].enqueue(r)
            ]
            # Pull any core requests that are due (with backpressure).
            for core in self.cores:
                while not holdback:
                    request = core.next_request(now)
                    if request is None:
                        break
                    if not self.controllers[request.channel].enqueue(request):
                        holdback.append(request)
            next_event = min(
                controller.tick(now) for controller in self.controllers
            )
            # Deliver completed reads to their cores.
            if self._completed_reads:
                for request in self._completed_reads:
                    self.cores[request.core].complete_read(
                        request, request.completion_ns
                    )
                    self._reads_done[request.core].append(request)
                self._completed_reads.clear()
            # Advance: to the next controller event, bounded by the next
            # core request arrival (cores generate work lazily).
            arrivals = [
                hint
                for hint in (core.next_arrival_hint(now) for core in self.cores)
                if hint is not None
            ]
            step_to = min([next_event] + arrivals) if arrivals else next_event
            now = max(now + tck, step_to)
        return self._collect_result(window_ns)

    def _collect_result(self, window_ns: float) -> SystemResult:
        """Assemble the :class:`SystemResult` (shared by both engines)."""
        stats = self.controllers[0].stats()
        for controller in self.controllers[1:]:
            other = controller.stats()
            stats.row_hits += other.row_hits
            stats.row_misses += other.row_misses
            stats.row_conflicts += other.row_conflicts
        core_results = []
        for core in self.cores:
            reads = self._reads_done[core.core_id]
            mean_latency = (
                sum(r.latency_ns for r in reads) / len(reads) if reads else 0.0
            )
            core_results.append(
                CoreResult(
                    benchmark=core.benchmark.name,
                    instructions=core.instructions_retired,
                    ipc=core.ipc(window_ns),
                    reads_completed=len(reads),
                    mean_read_latency_ns=mean_latency,
                )
            )
            if obs.trace_active():
                obs.emit(
                    "sim_progress",
                    t_ns=window_ns,
                    core=core.core_id,
                    instructions=core.instructions_retired,
                    benchmark=core.benchmark.name,
                    reads_completed=len(reads),
                )
        if obs.trace_active():
            # Per-channel energy rollups ride the trace (energy_rollup
            # events) so energy claims are replayable from the stream.
            for controller in self.controllers:
                energy_of_run(
                    controller.stats(), window_ns,
                    density_gbit=self.config.density_gbit,
                    channel=controller.channel,
                )
        accesses = stats.row_hits + stats.row_misses + stats.row_conflicts
        return SystemResult(
            window_ns=window_ns,
            cores=core_results,
            refreshes_issued=sum(
                c.stats().refreshes_issued for c in self.controllers
            ),
            refresh_busy_fraction=(
                sum(c.stats().refresh_busy_ns for c in self.controllers)
                / (window_ns * len(self.controllers))
            ),
            row_hit_rate=stats.row_hits / accesses if accesses else 0.0,
        )


#: ``simulate_workload`` results kept for reuse. A fixed bound: quick
#: fig15 + fig16 + table3 make 324 distinct calls.
WORKLOAD_MEMO_SIZE = 512

#: Memo key -> (result, registry delta, registry enabled), least
#: recently used first.
_workload_memo: "OrderedDict[str, Tuple[SystemResult, dict, bool]]" = (
    OrderedDict()
)


def simulate_workload(
    benchmark_names: Sequence[str],
    density_gbit: int = 8,
    refresh_interval_ms: float = 16.0,
    refresh_reduction: float = 0.0,
    concurrent_tests: int = 0,
    window_ns: float = 500_000.0,
    channels: int = 1,
    seed: int = 0,
) -> SystemResult:
    """Convenience wrapper: one run of a named multiprogrammed workload.

    A run is a pure function of its arguments, so results are memoised
    in a bounded LRU keyed on all of them (by ``repr``, so ``8`` and
    ``8.0`` stay apart: the window is part of the result). A hit returns
    a deep copy and replays the metrics the run recorded
    (:func:`repro.obs.snapshot_delta`) into the live registry, so
    counters and histograms read as if the run had happened. Traced
    runs (trace or forensics) always simulate: their value is the event
    stream.
    """
    args = (tuple(benchmark_names), density_gbit, refresh_interval_ms,
            refresh_reduction, concurrent_tests, window_ns, channels, seed)
    if obs.trace_active():
        return _simulate_workload(*args)
    key = repr(args)
    registry = obs.get_registry()
    cached = _workload_memo.get(key)
    if cached is not None and cached[2] == registry.enabled:
        _workload_memo.move_to_end(key)
        result, delta, _ = cached
        registry.merge(delta)
        return copy.deepcopy(result)
    before = registry.snapshot()
    result = _simulate_workload(*args)
    delta = obs.snapshot_delta(before, registry.snapshot())
    _workload_memo[key] = (copy.deepcopy(result), delta, registry.enabled)
    _workload_memo.move_to_end(key)
    if len(_workload_memo) > WORKLOAD_MEMO_SIZE:
        _workload_memo.popitem(last=False)
    return result


def _simulate_workload(
    benchmark_names: Tuple[str, ...],
    density_gbit: int,
    refresh_interval_ms: float,
    refresh_reduction: float,
    concurrent_tests: int,
    window_ns: float,
    channels: int,
    seed: int,
) -> SystemResult:
    config = SystemConfig(
        density_gbit=density_gbit,
        channels=channels,
        refresh=RefreshSettings(
            base_interval_ms=refresh_interval_ms,
            reduction=refresh_reduction,
        ),
        test_traffic=TestTrafficSettings(concurrent_tests=concurrent_tests),
    )
    benchmarks = [get_benchmark(name) for name in benchmark_names]
    return SystemSimulator(benchmarks, config, seed=seed).run(window_ns)
