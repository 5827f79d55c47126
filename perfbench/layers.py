"""Tracing for the traced run: spans plus cProfile folded onto layers.

Spans are recorded by the benchmark's own code around the public calls
it makes (and, in the traced fleet run, around the hostsim entry points
the service calls). Each span has a name, start, end, the index of the
span that caused it and a request id; spans stay in memory and are
written out when the benchmark ends.

Per-layer self time comes from ``cProfile`` with a per-thread CPU clock,
so time a thread spends blocked (in ``epoll``, a lock or ``sleep``)
charges nothing. A function defined in a layer's module is charged to
that layer. Everything else -- C builtins, numpy, the standard library
and repro modules that are not layers -- is charged to its nearest
calling layer through the pstats caller graph. What no layer calls is
``other``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import threading
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

#: Layer name -> module path under ``src/repro`` (a directory for
#: packages whose every module is one layer).
LAYERS: Dict[str, str] = {
    "sim.system": "sim/system.py",
    "sim.core": "sim/core.py",
    "sim.events": "sim/events.py",
    "mc.controller": "mc/controller.py",
    "mc.scheduler": "mc/scheduler.py",
    "mc.bank": "mc/bank.py",
    "mc.schedule": "mc/schedule.py",
    "dram.faults": "dram/faults.py",
    "traces.generator": "traces/generator.py",
    "core.memcon": "core/memcon.py",
    "fleet.server": "fleet/server.py",
    "fleet.protocol": "fleet/protocol.py",
    "fleet.registry": "fleet/registry.py",
    "fleet.scheduler": "fleet/scheduler.py",
    "fleet.aggregator": "fleet/aggregator.py",
    "fleet.hostsim": "fleet/hostsim.py",
    "parallel.executor": "parallel/executor.py",
    "obs": "obs/",
    "kernels": "kernels/",
}
OTHER = "other"

FuncKey = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The layer whose module defines a function, or None."""
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return None
    rel = path[at + len(marker):]
    for layer, module in LAYERS.items():
        if rel == module or (module.endswith("/") and rel.startswith(module)):
            return layer
    return None


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, request_id: Any, fn, *args, **kwargs):
        """Run ``fn`` inside a span; returns ``(result, span dict)``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = self.spans[parent]["request"]
        span = {"name": name, "request": request_id, "parent": parent,
                "thread": threading.current_thread().name}
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs), span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self seconds."""
        child_s: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None and "end" in span:
                child_s[span["parent"]] += span["end"] - span["start"]
        out: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            if "end" not in span:
                continue
            total = span["end"] - span["start"]
            entry = out.setdefault(
                span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += total
            entry["self_s"] += total - child_s[index]
        return out


# ----------------------------------------------------------------------
# cProfile across threads
# ----------------------------------------------------------------------
class ThreadProfiler:
    """One CPU-clock cProfile per thread.

    ``profile(fn)`` profiles one call on the current thread;
    ``watch_new_threads()`` profiles every thread started afterwards for
    its whole life (a thread that already runs cannot be reached).
    """

    def __init__(self) -> None:
        self.profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._main: Optional[cProfile.Profile] = None

    def _new(self) -> cProfile.Profile:
        prof = cProfile.Profile(time.thread_time)
        with self._lock:
            self.profiles.append(prof)
        return prof

    def profile(self, fn, *args, **kwargs):
        if self._main is None:
            self._main = self._new()
        self._main.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            self._main.disable()

    def watch_new_threads(self) -> None:
        def start(frame, event, arg):  # runs once, as the thread starts
            self._new().enable()
        threading.setprofile(start)

    def stop_watching(self) -> None:
        threading.setprofile(None)

    def stats(self) -> Optional[pstats.Stats]:
        merged: Optional[pstats.Stats] = None
        for prof in self.profiles:
            prof.create_stats()
            if not prof.stats:
                continue
            if merged is None:
                merged = pstats.Stats(prof)
            else:
                merged.add(prof)
        return merged


def fold_layers(stats: Optional[pstats.Stats]) -> Dict[str, Any]:
    """Fold self time and call counts onto layers.

    A function outside every layer is split over the layers of its
    callers in proportion to each caller edge's cumulative time. Returns
    ``self_s`` and ``calls`` per layer (``other`` included), the total
    profiled seconds and the top unattributed frames.
    """
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    other_frames: Dict[FuncKey, float] = defaultdict(float)
    if stats is None:
        return {"self_s": {}, "calls": {}, "total_s": 0.0, "other_frames": []}
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    owner = {func: layer_of(func[0]) for func in table}
    shares: Dict[FuncKey, Optional[Dict[str, float]]] = {}

    def layer_shares(func: FuncKey) -> Dict[str, float]:
        """Fractions of a function's time owed to each layer, weighted by
        the cumulative time of each caller edge; empty inside a cycle."""
        if owner.get(func):
            return {owner[func]: 1.0}
        if func in shares:
            return shares[func] or {}
        shares[func] = None  # in progress: a cycle back here adds nothing
        mix: Dict[str, float] = defaultdict(float)
        weight = 0.0
        for caller, edge in (table[func][4] if func in table else {}).items():
            sub = layer_shares(caller)
            if not sub:
                continue
            w = edge[3] or edge[2] or 1e-12
            weight += w
            for layer, frac in sub.items():
                mix[layer] += w * frac
        result = (
            {layer: v / weight for layer, v in mix.items()}
            if weight else {OTHER: 1.0}
        )
        shares[func] = result
        return result

    total = 0.0
    for func, (cc, nc, tt, ct, callers) in table.items():
        total += tt
        if owner[func]:
            calls[owner[func]] += nc
        for name, frac in layer_shares(func).items():
            self_s[name] += tt * frac
            if name == OTHER:
                other_frames[func] += tt * frac
    top = sorted(other_frames.items(), key=lambda kv: -kv[1])[:8]
    return {
        "self_s": dict(self_s),
        "calls": dict(calls),
        "total_s": total,
        "other_frames": [
            {"frame": f"{os.path.basename(f[0])}:{f[1]}({f[2]})",
             "self_s": round(s, 6)}
            for f, s in top
        ],
    }
