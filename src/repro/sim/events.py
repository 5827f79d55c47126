"""Central event queue for the discrete-event system simulator.

A tiny min-heap keyed on ``(time, actor)`` with lazy invalidation: each
actor (a core or a channel controller) has at most one *current* posted
time; re-posting bumps a version counter so stale heap entries are
recognised and dropped when they surface. Actors are tuples like
``("core", 3)`` or ``("mc", 0)``, which also provides the deterministic
tiebreak at equal times (cores sort before controllers, then by index) —
matching the fixed visit order of the retired poll loop.

``SystemSimulator.run`` inlines this protocol over integer actors and a
local ``heapq`` list (the per-request heap calls were a measurable share
of the simulator's time); this class is the protocol's standalone form.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Optional, Tuple

__all__ = ["EventHeap"]


class EventHeap:
    """Min-heap of per-actor next-ready times with lazy invalidation."""

    __slots__ = ("_heap", "_version", "_time")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, Hashable, int]] = []
        self._version: Dict[Hashable, int] = {}
        self._time: Dict[Hashable, float] = {}

    def __len__(self) -> int:
        return len(self._time)

    def push(self, actor: Hashable, time: float) -> None:
        """Post (or re-post) an actor's next-ready time."""
        version = self._version.get(actor, 0) + 1
        self._version[actor] = version
        self._time[actor] = time
        heapq.heappush(self._heap, (time, actor, version))

    def current(self, actor: Hashable) -> Optional[float]:
        """The actor's posted time, or None when it has none."""
        return self._time.get(actor)

    def invalidate(self, actor: Hashable) -> None:
        """Withdraw an actor's posted time (lazy: entry dropped on pop)."""
        if actor in self._time:
            self._version[actor] = self._version.get(actor, 0) + 1
            del self._time[actor]

    def prune_due(self, now: float) -> List[Hashable]:
        """Consume every posted time ``<= now``; returns those actors.

        Consumed actors no longer constrain :meth:`next_time`; the caller
        is expected to visit them this instant and re-post their next
        times.
        """
        due: List[Hashable] = []
        heap = self._heap
        while heap and heap[0][0] <= now:
            _, actor, version = heapq.heappop(heap)
            if self._version.get(actor) == version:
                self._version[actor] = version + 1  # consume
                del self._time[actor]
                due.append(actor)
        return due

    def next_time(self, default: float) -> float:
        """Earliest posted time, skipping stale entries; ``default`` when
        nothing is posted."""
        heap = self._heap
        while heap:
            time, actor, version = heap[0]
            if self._version.get(actor) == version:
                return time
            heapq.heappop(heap)
        return default
