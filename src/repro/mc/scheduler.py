"""FR-FCFS request scheduling.

First-Ready, First-Come-First-Served: among queued requests whose bank can
accept a command, prefer row-buffer hits (they finish fastest and keep the
bus busy), then the oldest request. Demand reads outrank posted writes and
background test traffic; writes are drained when the write queue crosses a
high-water mark, the standard write-drain policy.

The queues are indexed by bank: each (kind, bank) bucket is a FIFO deque
carrying a global enqueue sequence number, so the pick rule and
``earliest_issue_ns`` touch only the banks that actually hold work instead
of scanning the full pending list per call. The pick semantics are
unchanged from the flat-list implementation — "first eligible row-buffer
hit in enqueue order, else oldest eligible" — because enqueue order is
exactly the sequence-number order and each per-bank deque preserves it.

The layout is deliberately flat and shared: the memory controller's fused
drain loop (:meth:`repro.mc.controller.MemoryController.drain`) works on
``buckets``, ``counts``, ``draining_writes`` and ``unflushed_drains``
directly and applies the same pick rule inline. The methods below are the reference
implementation of that rule, used by the controller's poll-oracle step
and by unit tests. Queues are indexed by kind position (``READ_Q``,
``WRITE_Q``, ``TEST_Q``) rather than by the enum, whose ``__hash__``
costs a Python call per lookup.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .. import obs
from .bank import BankState
from .request import Request, RequestKind


@dataclass
class SchedulerConfig:
    """Queueing policy knobs."""

    write_queue_drain_threshold: int = 16
    read_queue_capacity: int = 64
    write_queue_capacity: int = 64

    def __post_init__(self) -> None:
        if self.write_queue_drain_threshold <= 0:
            raise ValueError("drain threshold must be positive")
        if self.read_queue_capacity <= 0 or self.write_queue_capacity <= 0:
            raise ValueError("queue capacities must be positive")


#: Positions of the per-kind queues in ``_BankBucket.queues`` and of the
#: per-kind pending counts in ``FrFcfsScheduler.counts``.
READ_Q, WRITE_Q, TEST_Q = 0, 1, 2


class _BankBucket:
    """Per-bank pending requests, one FIFO per request kind.

    ``queues`` holds the same three deques by kind position. ``min_arrival``
    caches the smallest arrival time across all three deques so
    ``earliest_issue_ns`` is O(banks-with-work); it is restored by a
    rescan only when the request holding the minimum leaves.
    """

    __slots__ = ("reads", "writes", "tests", "queues", "count", "min_arrival")

    def __init__(self) -> None:
        self.reads: Deque[Tuple[int, Request]] = deque()
        self.writes: Deque[Tuple[int, Request]] = deque()
        self.tests: Deque[Tuple[int, Request]] = deque()
        self.queues = (self.reads, self.writes, self.tests)
        self.count = 0
        self.min_arrival = float("inf")

    def queue_for(self, kind: RequestKind) -> Deque[Tuple[int, Request]]:
        if kind is RequestKind.READ:
            return self.reads
        if kind is RequestKind.WRITE:
            return self.writes
        return self.tests

    def recompute_min(self) -> None:
        best = float("inf")
        for queue in self.queues:
            for _, request in queue:
                if request.arrival_ns < best:
                    best = request.arrival_ns
        self.min_arrival = best


class FrFcfsScheduler:
    """Bank-indexed priority queues plus the FR-FCFS pick rule."""

    def __init__(self, config: Optional[SchedulerConfig] = None) -> None:
        self.config = config or SchedulerConfig()
        #: bank id -> that bank's queues, in first-use order.
        self.buckets: Dict[int, _BankBucket] = {}
        #: Pending requests per kind position (READ_Q, WRITE_Q, TEST_Q).
        self.counts = [0, 0, 0]
        #: Requests ever accepted; also the next enqueue sequence number.
        self.enqueued = 0
        self.draining_writes = False
        # Hot-path counters accumulate locally and reach the registry in
        # one batched flush (flush_metrics) instead of per enqueue.
        self._n_enqueued = 0
        self._n_rejected = 0
        self.unflushed_drains = 0
        registry = obs.get_registry()
        self._c_enqueued = registry.counter("mc.sched.enqueued")
        self._c_rejected = registry.counter("mc.sched.rejected")
        self._c_drains = registry.counter("mc.sched.write_drains")

    # ------------------------------------------------------------------
    def flush_metrics(self) -> None:
        """Push batched queue counters into the metrics registry."""
        if self._n_enqueued:
            self._c_enqueued.inc(self._n_enqueued)
            self._n_enqueued = 0
        if self._n_rejected:
            self._c_rejected.inc(self._n_rejected)
            self._n_rejected = 0
        if self.unflushed_drains:
            self._c_drains.inc(self.unflushed_drains)
            self.unflushed_drains = 0

    # ------------------------------------------------------------------
    def enqueue(self, request: Request) -> bool:
        """Add a request; returns False when the target queue is full."""
        kind = request.kind
        counts = self.counts
        bucket = self.buckets.get(request.bank)
        if bucket is None:
            bucket = self.buckets[request.bank] = _BankBucket()
        if kind is RequestKind.READ:
            if counts[READ_Q] >= self.config.read_queue_capacity:
                self._n_rejected += 1
                return False
            counts[READ_Q] += 1
            bucket.reads.append((self.enqueued, request))
        elif kind is RequestKind.WRITE:
            if counts[WRITE_Q] >= self.config.write_queue_capacity:
                self._n_rejected += 1
                return False
            counts[WRITE_Q] += 1
            bucket.writes.append((self.enqueued, request))
        else:
            counts[TEST_Q] += 1
            bucket.tests.append((self.enqueued, request))
        bucket.count += 1
        if request.arrival_ns < bucket.min_arrival:
            bucket.min_arrival = request.arrival_ns
        self.enqueued += 1
        self._n_enqueued += 1
        return True

    @property
    def pending(self) -> int:
        counts = self.counts
        return counts[0] + counts[1] + counts[2]

    def _flat_queue(self, kind: RequestKind) -> List[Request]:
        """All pending requests of one kind, in enqueue order (debug view)."""
        entries = []
        for bucket in self.buckets.values():
            entries.extend(bucket.queue_for(kind))
        entries.sort()
        return [request for _, request in entries]

    @property
    def read_queue(self) -> List[Request]:
        return self._flat_queue(RequestKind.READ)

    @property
    def write_queue(self) -> List[Request]:
        return self._flat_queue(RequestKind.WRITE)

    @property
    def test_queue(self) -> List[Request]:
        return self._flat_queue(RequestKind.TEST)

    # ------------------------------------------------------------------
    def _remove(
        self,
        bucket: _BankBucket,
        queue: Deque[Tuple[int, Request]],
        entry: Tuple[int, Request],
    ) -> Request:
        if queue[0] is entry:
            queue.popleft()
        else:
            queue.remove(entry)
        bucket.count -= 1
        request = entry[1]
        kind = request.kind
        if kind is RequestKind.READ:
            self.counts[READ_Q] -= 1
        elif kind is RequestKind.WRITE:
            self.counts[WRITE_Q] -= 1
        else:
            self.counts[TEST_Q] -= 1
        if request.arrival_ns <= bucket.min_arrival:
            bucket.recompute_min()
        return request

    def _pick_fr_fcfs(
        self, kind: RequestKind, banks: Sequence[BankState], now_ns: float
    ) -> Optional[Request]:
        """First eligible row-buffer hit in enqueue order, else oldest.

        Only banks that can accept a command at ``now_ns`` are scanned;
        within a bank the deque is already in enqueue (sequence) order, so
        the first matching entry is the bank's oldest candidate.
        """
        best_hit: Optional[Tuple[int, Request, _BankBucket]] = None
        best_any: Optional[Tuple[int, Request, _BankBucket]] = None
        is_read = kind is RequestKind.READ
        is_write = kind is RequestKind.WRITE
        for bank_id, bucket in self.buckets.items():
            queue = (
                bucket.reads if is_read
                else bucket.writes if is_write
                else bucket.tests
            )
            if not queue:
                continue
            bank = banks[bank_id]
            if bank.ready_ns > now_ns:
                continue
            open_row = bank.open_row
            found_any = False
            for entry in queue:
                request = entry[1]
                if request.arrival_ns > now_ns:
                    continue
                if not found_any:
                    found_any = True
                    if best_any is None or entry[0] < best_any[0]:
                        best_any = (entry[0], request, bucket)
                    if open_row is None:
                        break  # no hit possible in a precharged bank
                if request.row == open_row:
                    if best_hit is None or entry[0] < best_hit[0]:
                        best_hit = (entry[0], request, bucket)
                    break  # later entries in this bank cannot beat it
        chosen = best_hit if best_hit is not None else best_any
        if chosen is None:
            return None
        bucket = chosen[2]
        return self._remove(
            bucket, bucket.queue_for(kind), (chosen[0], chosen[1])
        )

    def next_request(
        self, banks: Sequence[BankState], now_ns: float
    ) -> Optional[Request]:
        """Pick (and remove) the next request issuable at ``now_ns``.

        Reads first; writes only when draining (high-water mark) or when
        no reads are pending; test traffic strictly last.
        """
        cfg = self.config
        counts = self.counts
        writes = counts[WRITE_Q]
        if writes >= cfg.write_queue_drain_threshold:
            if not self.draining_writes:
                self.unflushed_drains += 1
            self.draining_writes = True
        if not writes:
            self.draining_writes = False

        if self.draining_writes and writes:
            choice = self._pick_fr_fcfs(RequestKind.WRITE, banks, now_ns)
            if choice is not None:
                if counts[WRITE_Q] <= cfg.write_queue_drain_threshold // 2:
                    self.draining_writes = False
                return choice
        if counts[READ_Q]:
            choice = self._pick_fr_fcfs(RequestKind.READ, banks, now_ns)
            if choice is not None:
                return choice
        if counts[WRITE_Q]:
            choice = self._pick_fr_fcfs(RequestKind.WRITE, banks, now_ns)
            if choice is not None:
                return choice
        if counts[TEST_Q]:
            return self._pick_fr_fcfs(RequestKind.TEST, banks, now_ns)
        return None

    def earliest_issue_ns(
        self, banks: Sequence[BankState], floor_ns: float
    ) -> Optional[float]:
        """Earliest future time any queued request becomes eligible.

        Per bank, the earliest candidate is ``max(min arrival, bank ready,
        floor)`` — identical to minimising ``max(arrival, ready, floor)``
        over that bank's requests — so the scan is O(banks with work).
        """
        best: Optional[float] = None
        for bank_id, bucket in self.buckets.items():
            if not bucket.count:
                continue
            t = bucket.min_arrival
            ready = banks[bank_id].ready_ns
            if ready > t:
                t = ready
            if floor_ns > t:
                t = floor_ns
            if best is None or t < best:
                best = t
        return best
