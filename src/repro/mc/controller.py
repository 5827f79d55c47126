"""The cycle-level memory controller.

Ties together the FR-FCFS scheduler, per-bank row-buffer timing, the
rank-wide data bus, and the refresh scheduler. Refresh is the lever the
whole paper turns on: auto-refresh commands block the rank for ``tRFC``
every effective ``tREFI``, and refresh-reduction mechanisms (MEMCON,
RAIDR, slower baselines) stretch the effective ``tREFI`` in proportion to
the refresh operations they eliminate — exactly how the paper models the
mechanisms inside its simulator (§6.2).

MEMCON's testing traffic is injected as background requests: each
concurrent test contributes two full-row reads (Read&Compare) spread over
the test window (Table 3's overhead study).

Two implementations of the per-instant work live here on purpose.
:meth:`MemoryController.drain` is the production path: one loop over
local variables that applies refresh and test injection from their
precomputed schedules, the FR-FCFS pick, the row-buffer and bus timing
and the accounting inline. :meth:`MemoryController._step`,
:meth:`~MemoryController.next_event_ns` and :meth:`~MemoryController.tick`
compose the same rules from the scheduler's and the bank model's methods;
the poll engine (``SystemSimulator.run(engine="poll")``) drives them as
the independent equivalence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..dram.timing import DDR3_1600, TimingParameters
from .bank import (
    BankActivationLog,
    BankState,
    RankState,
    issue_refresh,
    service_request,
)
from .request import Request, RequestKind
from .rowrefresh import TargetRowRefresh, TrrSettings
from .schedule import ArrivalSchedule
from .scheduler import (
    READ_Q,
    TEST_Q,
    WRITE_Q,
    FrFcfsScheduler,
    SchedulerConfig,
)

_INF = float("inf")
#: Pick orders by kind position: reads first, or writes first while the
#: write queue drains (FrFcfsScheduler.next_request's hysteresis).
_READS_FIRST = (READ_Q, WRITE_Q, TEST_Q)
_WRITES_FIRST = (WRITE_Q, READ_Q, TEST_Q)


@dataclass
class RefreshSettings:
    """Refresh behaviour of the controller.

    ``base_interval_ms`` is the per-row retention target of the baseline
    policy; ``reduction`` removes that fraction of refresh commands (0.0
    for the baseline, up to 0.75 for ideal 64 ms operation when the
    baseline is 16 ms).
    """

    base_interval_ms: float = 16.0
    reduction: float = 0.0
    rows_per_window: int = 8192

    def __post_init__(self) -> None:
        if self.base_interval_ms <= 0:
            raise ValueError("base_interval_ms must be positive")
        if not 0.0 <= self.reduction < 1.0:
            raise ValueError("reduction must be in [0, 1)")
        if self.rows_per_window <= 0:
            raise ValueError("rows_per_window must be positive")

    @property
    def effective_trefi_ns(self) -> float:
        """Spacing of refresh commands after the reduction is applied."""
        base = self.base_interval_ms * 1e6 / self.rows_per_window
        return base / (1.0 - self.reduction)


@dataclass
class TestTrafficSettings:
    """MEMCON background test traffic (Table 3).

    ``concurrent_tests`` tests run per ``window_ms``; each test issues
    ``requests_per_test`` full-row block reads, spread uniformly.
    """

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest class

    concurrent_tests: int = 0
    window_ms: float = 64.0
    requests_per_test: int = 256  # 2 row reads x 128 blocks

    def __post_init__(self) -> None:
        if self.concurrent_tests < 0:
            raise ValueError("concurrent_tests must be non-negative")
        if self.window_ms <= 0:
            raise ValueError("window_ms must be positive")
        if self.requests_per_test <= 0:
            raise ValueError("requests_per_test must be positive")

    @property
    def request_interval_ns(self) -> Optional[float]:
        """Spacing between injected test requests (None when disabled)."""
        total = self.concurrent_tests * self.requests_per_test
        if total == 0:
            return None
        return self.window_ms * 1e6 / total


@dataclass
class ControllerStats:
    """Aggregate controller statistics for one run."""

    reads_served: int = 0
    writes_served: int = 0
    test_requests_served: int = 0
    total_read_latency_ns: float = 0.0
    refreshes_issued: int = 0
    refresh_busy_ns: float = 0.0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0

    @property
    def mean_read_latency_ns(self) -> float:
        if self.reads_served == 0:
            return 0.0
        return self.total_read_latency_ns / self.reads_served


class MemoryController:
    """One channel / one rank / N banks with FR-FCFS and auto-refresh."""

    def __init__(
        self,
        timing: TimingParameters = DDR3_1600,
        banks: int = 8,
        rows_per_bank: int = 32768,
        refresh: Optional[RefreshSettings] = None,
        test_traffic: Optional[TestTrafficSettings] = None,
        scheduler_config: Optional[SchedulerConfig] = None,
        on_read_complete: Optional[Callable[[Request], None]] = None,
        row_refresh: Optional["RowRefreshScheduler"] = None,
        seed: int = 0,
        channel: int = 0,
        track_activations: bool = False,
        trr: Optional[TrrSettings] = None,
    ) -> None:
        if banks <= 0 or rows_per_bank <= 0:
            raise ValueError("banks and rows_per_bank must be positive")
        if channel < 0:
            raise ValueError("channel must be non-negative")
        self.timing = timing
        # TRR needs the ACT counters, so configuring it implies tracking.
        self.track_activations = track_activations or trr is not None
        self.banks = [
            BankState(
                act_log=BankActivationLog() if self.track_activations else None
            )
            for _ in range(banks)
        ]
        self.trr = (
            TargetRowRefresh(trr, timing, rows_per_bank)
            if trr is not None else None
        )
        self.rows_per_bank = rows_per_bank
        self.rank = RankState()
        self.refresh = refresh or RefreshSettings()
        self.test_traffic = test_traffic or TestTrafficSettings()
        self.scheduler = FrFcfsScheduler(scheduler_config)
        self.on_read_complete = on_read_complete
        self.channel = channel
        self._reads_served = 0
        self._writes_served = 0
        self._tests_served = 0
        self._read_latency_ns = 0.0
        registry = obs.get_registry()
        self._registry = registry
        self._c_refreshes = registry.counter("mc.refreshes_issued")
        self._c_test_injected = registry.counter("mc.test_requests_injected")
        # Indexed by kind position (READ_Q, WRITE_Q, TEST_Q).
        self._c_served = (
            registry.counter("mc.reads_served"),
            registry.counter("mc.writes_served"),
            registry.counter("mc.test_requests_served"),
        )
        self._h_read_latency = registry.histogram(
            "mc.read_latency_ns",
            buckets=(25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0),
        )
        # Per-request-path instruments accumulate locally and are flushed
        # in one batch (flush_metrics, called from stats()); the running
        # pending-latency list keeps observation order so the histogram
        # sum is the same float as per-request observes.
        self._pend_refreshes = 0
        self._pend_test_injected = 0
        self._pend_served = [0, 0, 0]
        self._pend_latencies: List[float] = []
        # Row-granularity refresh replaces all-bank REF when supplied.
        self.row_refresh = row_refresh
        self._rng = np.random.default_rng(seed)
        # Refresh and test injection follow fixed periodic schedules; the
        # next-k arrival times are precomputed (ArrivalSchedule) instead of
        # re-derived by per-tick compare-and-bump.
        self._refresh_schedule = (
            None if row_refresh is not None
            else ArrivalSchedule(self.refresh.effective_trefi_ns,
                                 self.refresh.effective_trefi_ns)
        )
        interval = self.test_traffic.request_interval_ns
        self._test_schedule = (
            None if interval is None else ArrivalSchedule(interval, interval)
        )

    # ------------------------------------------------------------------
    def enqueue(self, request: Request) -> bool:
        """Accept a request into the appropriate queue."""
        return self.scheduler.enqueue(request)

    @property
    def pending(self) -> int:
        return self.scheduler.pending

    def next_event_ns(self, now_ns: float) -> float:
        """Earliest time the controller has something to do after ``now``.

        Equivalent to ``min`` over the ``max(candidate, now)``-clamped
        refresh / row-refresh / test-injection deadlines and the earliest
        queue-issue time, written branch-by-branch because it runs once
        per simulated instant.
        """
        best = float("inf")
        schedule = self._refresh_schedule
        if schedule is not None:
            best = schedule.next_ns
            if best < now_ns:
                best = now_ns
        if self.row_refresh is not None:
            candidate = self.row_refresh.next_due_ns
            if candidate < now_ns:
                candidate = now_ns
            if candidate < best:
                best = candidate
        schedule = self._test_schedule
        if schedule is not None:
            candidate = schedule.next_ns
            if candidate < now_ns:
                candidate = now_ns
            if candidate < best:
                best = candidate
        if self.scheduler.pending:
            floor = self.rank.refresh_until_ns
            if floor < now_ns:
                floor = now_ns
            earliest = self.scheduler.earliest_issue_ns(self.banks, floor)
            if earliest is not None and earliest < best:
                best = earliest
        return best

    # ------------------------------------------------------------------
    def _step(self, now_ns: float) -> Optional[Request]:
        """Process the work available at ``now_ns``; return any serviced
        request (``None`` when the instant was idle).

        One call issues at most one refresh, one injected test request and
        one scheduled request — the historical per-tick unit of work.
        """
        # 1. Refresh has priority: it is a hard JEDEC deadline. It acts as
        # a barrier — no request command may issue while it is pending.
        schedule = self._refresh_schedule
        if schedule is not None and now_ns >= schedule.next_ns:
            due = schedule.next_ns
            issue_refresh(self.rank, self.banks, max(due, now_ns), self.timing)
            if self._registry.enabled:
                self._pend_refreshes += 1
            if obs.trace_active():
                obs.emit("mc_refresh", t_ns=max(due, now_ns),
                         channel=self.channel)
            schedule.advance()
        if self.row_refresh is not None:
            self.row_refresh.tick(now_ns, self.banks)
        # 2. Inject background test traffic on its schedule. The bank/row
        # draws stay scalar and per-injection so the RNG stream matches
        # the historical one draw-pair-per-request order.
        schedule = self._test_schedule
        if schedule is not None and now_ns >= schedule.next_ns:
            due = schedule.next_ns
            bank = int(self._rng.integers(len(self.banks)))
            row = int(self._rng.integers(self.rows_per_bank))
            self.scheduler.enqueue(Request(
                kind=RequestKind.TEST, core=-1, bank=bank, row=row,
                arrival_ns=due, channel=self.channel,
            ))
            if self._registry.enabled:
                self._pend_test_injected += 1
            schedule.advance()
        # 3. Issue one request if one is eligible right now (banks free,
        # no refresh in progress).
        if self.scheduler.pending and now_ns >= self.rank.refresh_until_ns:
            request = self.scheduler.next_request(self.banks, now_ns)
            if request is not None:
                bank = self.banks[request.bank]
                done = service_request(
                    bank, self.rank, request.row, now_ns, self.timing,
                )
                request.completion_ns = done
                if self.trr is not None:
                    fired = self.trr.observe(bank, request.row, now_ns)
                    if (
                        fired
                        and obs.trace_active()
                        and obs.forensics_active()
                    ):
                        # Row id uses the module-flat convention of
                        # activation snapshots so ledger rows line up
                        # with the disturbance model's victims.
                        flat = (
                            self.channel * len(self.banks) + request.bank
                        ) * self.rows_per_bank + request.row
                        obs.emit(
                            "trr_refresh",
                            t_ns=now_ns,
                            bank=request.bank,
                            row=flat,
                            bank_row=request.row,
                            channel=self.channel,
                            neighbors=self.trr.last_neighbors,
                        )
                self._account(request)
                return request
        return None

    def tick(self, now_ns: float) -> float:
        """Process work available at ``now_ns``; return next event time.

        One call issues at most one refresh, one injected test request and
        one scheduled request; callers loop on the returned event time.
        """
        self._step(now_ns)
        return self.next_event_ns(now_ns + self.timing.tCK)

    def drain(self, now_ns: float, bound_ns: float) -> "Tuple[float, float]":
        """Run every internal step in ``[now_ns, bound_ns)`` in one visit.

        The controller advances its own clock through the same sequence of
        instants the tick loop would have visited — ``t' = max(t + tCK,
        next_event)`` — so service timing is unchanged. ``bound_ns`` is the
        earliest time the outside world may act (a core arrival, another
        channel's event, the window end); the drain additionally stops at
        the completion time of any read it services, because delivering
        that read can unstall a core.

        Returns ``(next_event, last_instant)``: the controller's next
        event time and the last instant actually processed. The caller
        must floor its next visit of *anything* at ``last_instant + tCK``
        — the poll loop applied the tCK floor per processed instant, and
        that composition is observable (a floor can push a core's poll
        past its arrival time), so it is part of the preserved semantics.

        This is :meth:`_step` followed by :meth:`next_event_ns`, fused
        into one loop over locals: the refresh and test-injection
        deadlines are read straight from their :class:`ArrivalSchedule`
        (the schedule wraps the request path instead of being threaded
        through it), and the FR-FCFS pick, ``service_request`` and
        ``_account`` run inline. Row refresh, TRR, activation tracking
        and tracing are rare and stay behind hoisted flags.
        """
        timing = self.timing
        tck = timing.tCK
        t_rcd = timing.tRCD
        t_rp = timing.tRP
        t_cas = timing.tCAS
        t_ccd = timing.tCCD
        burst_ns = timing.burst_cycles * timing.tCK
        bus_hold = max(burst_ns, t_ccd)
        banks = self.banks
        rank = self.rank
        scheduler = self.scheduler
        buckets = scheduler.buckets
        counts = scheduler.counts
        threshold = scheduler.config.write_queue_drain_threshold
        refresh_schedule = self._refresh_schedule
        refresh_next = (
            _INF if refresh_schedule is None else refresh_schedule.next_ns
        )
        refresh_until = rank.refresh_until_ns
        test_schedule = self._test_schedule
        test_next = _INF if test_schedule is None else test_schedule.next_ns
        row_refresh = self.row_refresh
        trr = self.trr
        tracking = self.track_activations
        on_read = self.on_read_complete
        enabled = self._registry.enabled
        tracing = obs.trace_active()
        latencies = self._pend_latencies
        read_latency = self._read_latency_ns
        reads = writes = tests = refreshes = injected = 0

        t = now_ns
        while True:
            # Refresh has priority: a hard JEDEC deadline and a barrier
            # (no request command issues while it is in progress).
            if t >= refresh_next:
                refresh_until = issue_refresh(rank, banks, t, timing)
                refreshes += 1
                if tracing:
                    obs.emit("mc_refresh", t_ns=t, channel=self.channel)
                refresh_next = refresh_schedule.advance()
            if row_refresh is not None:
                row_refresh.tick(t, banks)
            # Background test traffic: scalar bank/row draws per
            # injection keep the historical RNG stream.
            if t >= test_next:
                scheduler.enqueue(Request(
                    RequestKind.TEST, -1,
                    int(self._rng.integers(len(banks))),
                    int(self._rng.integers(self.rows_per_bank)),
                    test_next, self.channel,
                ))
                injected += 1
                test_next = test_schedule.advance()

            # FR-FCFS pick with write-drain hysteresis: the first eligible
            # row-buffer hit in enqueue order, else the oldest eligible
            # request, trying the kinds in priority order.
            if (counts[0] or counts[1] or counts[2]) and t >= refresh_until:
                n_write = counts[WRITE_Q]
                if n_write >= threshold:
                    if not scheduler.draining_writes:
                        scheduler.unflushed_drains += 1
                    scheduler.draining_writes = True
                elif not n_write:
                    scheduler.draining_writes = False
                draining = scheduler.draining_writes
                entry = None
                for kind in _WRITES_FIRST if draining else _READS_FIRST:
                    if not counts[kind]:
                        continue
                    best_hit = best_any = None
                    for bank_id, bucket in buckets.items():
                        queue = bucket.queues[kind]
                        if not queue:
                            continue
                        bank = banks[bank_id]
                        if bank.ready_ns > t:
                            continue
                        open_row = bank.open_row
                        found_any = False
                        for candidate in queue:
                            request = candidate[1]
                            if request.arrival_ns > t:
                                continue
                            if not found_any:
                                found_any = True
                                if (best_any is None
                                        or candidate[0] < best_any[0]):
                                    best_any = candidate
                                    any_bucket = bucket
                                if open_row is None:
                                    break  # no hit in a precharged bank
                            if request.row == open_row:
                                if (best_hit is None
                                        or candidate[0] < best_hit[0]):
                                    best_hit = candidate
                                    hit_bucket = bucket
                                break  # later entries cannot beat it
                    if best_hit is not None:
                        entry, bucket = best_hit, hit_bucket
                    elif best_any is not None:
                        entry, bucket = best_any, any_bucket
                    else:
                        continue
                    queue = bucket.queues[kind]
                    if queue[0] is entry:
                        queue.popleft()
                    else:
                        queue.remove(entry)
                    bucket.count -= 1
                    counts[kind] -= 1
                    request = entry[1]
                    if request.arrival_ns <= bucket.min_arrival:
                        bucket.recompute_min()
                    if (draining and kind == WRITE_Q
                            and counts[WRITE_Q] <= threshold // 2):
                        scheduler.draining_writes = False
                    break

                if entry is not None:
                    # Row-buffer state machine and data-bus serialisation
                    # (bank.service_request; the pick guarantees the bank
                    # and the rank are free, so the command issues at t).
                    row = request.row
                    bank = banks[request.bank]
                    open_row = bank.open_row
                    if open_row == row:
                        bank.row_hits += 1
                        column_at = t
                    elif open_row is None:
                        bank.row_misses += 1
                        bank.activations += 1
                        column_at = t + t_rcd
                        bank.open_row = row
                        if tracking:
                            bank.act_log.activate(row, t)
                    else:
                        bank.row_conflicts += 1
                        bank.precharges += 1
                        bank.activations += 1
                        column_at = t + t_rp + t_rcd
                        bank.open_row = row
                        if tracking:
                            bank.act_log.close(t)
                            bank.act_log.activate(row, t + t_rp)
                    data_start = column_at + t_cas
                    if rank.bus_free_ns > data_start:
                        data_start = rank.bus_free_ns
                    done = data_start + burst_ns
                    rank.bus_free_ns = data_start + bus_hold
                    ready = done - t_cas
                    bank.ready_ns = (
                        column_at + t_ccd if column_at + t_ccd >= ready
                        else ready
                    )
                    request.completion_ns = done
                    if trr is not None:
                        self._observe_trr(bank, request, t, tracing)
                    if kind == READ_Q:
                        reads += 1
                        latency = done - request.arrival_ns
                        read_latency += latency
                        if enabled:
                            latencies.append(latency)
                        if on_read is not None:
                            on_read(request)
                        # Delivering this read may unstall a core.
                        if done < bound_ns:
                            bound_ns = done
                    elif kind == WRITE_Q:
                        writes += 1
                    else:
                        tests += 1
                    if tracing:
                        obs.emit(
                            "mc_request",
                            t_ns=done,
                            kind_served=request.kind.value,
                            bank=request.bank,
                            latency_ns=done - request.arrival_ns,
                            channel=self.channel,
                        )

            # Next instant: the earliest clamped deadline or queue-issue
            # time at or after t + tCK (next_event_ns, inline).
            t1 = t + tck
            nxt = refresh_next if refresh_next >= t1 else t1
            if row_refresh is not None:
                candidate = row_refresh.next_due_ns
                if candidate < t1:
                    candidate = t1
                if candidate < nxt:
                    nxt = candidate
            if test_next < nxt:
                nxt = test_next if test_next >= t1 else t1
            if counts[0] or counts[1] or counts[2]:
                floor = refresh_until if refresh_until >= t1 else t1
                for bank_id, bucket in buckets.items():
                    if not bucket.count:
                        continue
                    candidate = bucket.min_arrival
                    ready = banks[bank_id].ready_ns
                    if ready > candidate:
                        candidate = ready
                    if floor > candidate:
                        candidate = floor
                    if candidate < nxt:
                        nxt = candidate
            if nxt >= bound_ns:
                break
            t = nxt

        self._reads_served += reads
        self._writes_served += writes
        self._tests_served += tests
        self._read_latency_ns = read_latency
        if enabled:
            pend = self._pend_served
            pend[READ_Q] += reads
            pend[WRITE_Q] += writes
            pend[TEST_Q] += tests
            self._pend_refreshes += refreshes
            self._pend_test_injected += injected
        return nxt, t

    def _observe_trr(
        self, bank: BankState, request: Request, now_ns: float,
        tracing: bool,
    ) -> None:
        """Let TRR check the serviced row; record a mitigation it fires."""
        fired = self.trr.observe(bank, request.row, now_ns)
        if fired and tracing and obs.forensics_active():
            # Row id uses the module-flat convention of activation
            # snapshots so ledger rows line up with the disturbance
            # model's victims.
            flat = (
                self.channel * len(self.banks) + request.bank
            ) * self.rows_per_bank + request.row
            obs.emit(
                "trr_refresh",
                t_ns=now_ns,
                bank=request.bank,
                row=flat,
                bank_row=request.row,
                channel=self.channel,
                neighbors=self.trr.last_neighbors,
            )

    def _account(self, request: Request) -> None:
        enabled = self._registry.enabled
        if request.kind is RequestKind.READ:
            if enabled:
                self._pend_served[READ_Q] += 1
            self._reads_served += 1
            self._read_latency_ns += request.latency_ns
            if enabled:
                self._pend_latencies.append(request.latency_ns)
            if self.on_read_complete is not None:
                self.on_read_complete(request)
        elif request.kind is RequestKind.WRITE:
            if enabled:
                self._pend_served[WRITE_Q] += 1
            self._writes_served += 1
        else:
            if enabled:
                self._pend_served[TEST_Q] += 1
            self._tests_served += 1
        if obs.trace_active():
            obs.emit(
                "mc_request",
                t_ns=request.completion_ns,
                kind_served=request.kind.value,
                bank=request.bank,
                latency_ns=request.latency_ns,
                channel=self.channel,
            )

    # ------------------------------------------------------------------
    def activation_snapshot(
        self, now_ns: float
    ) -> List[Tuple[Dict[int, int], Dict[int, float]]]:
        """Per-bank (ACT counts, on-time ns) with open intervals closed
        virtually at ``now_ns``; requires activation tracking."""
        if not self.track_activations:
            raise ValueError(
                "controller built without track_activations/trr"
            )
        return [bank.act_log.snapshot(now_ns) for bank in self.banks]

    # ------------------------------------------------------------------
    def flush_metrics(self) -> None:
        """Push batched per-request instruments into the metrics registry.

        Counter deltas and the ordered latency backlog accumulate on the
        controller during the run and reach the registry here — called
        from :meth:`stats` and at run end — producing the same registry
        state (merge/snapshot-compatible) as per-request updates.
        """
        if self._pend_refreshes:
            self._c_refreshes.inc(self._pend_refreshes)
            self._pend_refreshes = 0
        if self._pend_test_injected:
            self._c_test_injected.inc(self._pend_test_injected)
            self._pend_test_injected = 0
        for index, count in enumerate(self._pend_served):
            if count:
                self._c_served[index].inc(count)
                self._pend_served[index] = 0
        if self._pend_latencies:
            self._h_read_latency.observe_many(self._pend_latencies)
            self._pend_latencies = []
        self.scheduler.flush_metrics()

    # ------------------------------------------------------------------
    def check_conservation(self) -> None:
        """Raise ``RuntimeError`` unless the request and ACT books balance.

        Every accepted request was served or is still queued, and every
        bank's activations are its row misses plus row conflicts. O(banks).
        """
        scheduler = self.scheduler
        served = self._reads_served + self._writes_served + self._tests_served
        if scheduler.enqueued != served + scheduler.pending:
            raise RuntimeError(
                f"channel {self.channel}: {scheduler.enqueued} requests "
                f"enqueued != {served} served + {scheduler.pending} pending"
            )
        for index, bank in enumerate(self.banks):
            if bank.activations != bank.row_misses + bank.row_conflicts:
                raise RuntimeError(
                    f"channel {self.channel} bank {index}: "
                    f"{bank.activations} activations != {bank.row_misses} "
                    f"misses + {bank.row_conflicts} conflicts"
                )

    # ------------------------------------------------------------------
    def stats(self) -> ControllerStats:
        self.flush_metrics()
        refreshes = self.rank.refreshes_issued
        busy_ns = self.rank.refresh_busy_ns
        if self.row_refresh is not None:
            refreshes += self.row_refresh.commands_issued
            busy_ns += self.row_refresh.busy_ns
        stats = ControllerStats(
            reads_served=self._reads_served,
            writes_served=self._writes_served,
            test_requests_served=self._tests_served,
            total_read_latency_ns=self._read_latency_ns,
            refreshes_issued=refreshes,
            refresh_busy_ns=busy_ns,
        )
        for bank in self.banks:
            stats.row_hits += bank.row_hits
            stats.row_misses += bank.row_misses
            stats.row_conflicts += bank.row_conflicts
        return stats
