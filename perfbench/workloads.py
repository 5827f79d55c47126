"""The benchmark's four workloads, driven through public entry points.

Each workload is generated from the seed by one client on one thread
and exposes the same steps: ``setup(seed)``, ``run_until(deadline,
measure)`` for the timed closed loop, ``check(measure)`` for the
correctness checks made after the timed phase, and ``close()``.

* ``sim-memcon-4core`` and ``sim-8core-4ch`` (:mod:`perfbench.sim`)
  call ``simulate_workload``; an op is one serviced demand read
  (``CoreResult.reads_completed``).
* ``fleet-stream`` and ``fleet-compute`` (:mod:`perfbench.fleet`) drive
  an in-process ``FleetService`` over HTTP with ``FleetClient``; an op
  is one host completed.

:func:`make` imports only the module a workload needs, so each
workload's set-up time counts the imports it really pays.
"""

from __future__ import annotations

import statistics
from typing import Any, List, Tuple


def direct(name: str, request_id: Any, fn, *args, **kwargs):
    """The untraced call wrapper: just the call."""
    return fn(*args, **kwargs)


class Measure:
    """What the timed loop saw: ops, wall time, per-call latencies and
    segments of consecutive work, each ``(ops, seconds)``."""

    def __init__(self) -> None:
        self.ops = 0
        self.wall_s = 0.0
        self.latencies_s: List[float] = []
        self.segments: List[Tuple[int, float]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def rate(self) -> float:
        """Median ops per second over the segments.

        On a shared 2-vCPU VM one fixed call's time swung by a fifth from
        one second to the next; a median over many short segments
        follows the program, where total ops over total time follow the
        swings.
        """
        if not self.segments:  # a run too short for one segment
            return self.ops / self.wall_s
        return statistics.median(ops / seconds
                                 for ops, seconds in self.segments)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def make(name: str):
    """A fresh workload by name."""
    if name == "sim-memcon-4core":
        from perfbench.sim import FIG15_PATTERN, SimWorkload
        # Windows an eighth of fig15's: eight times the points per run.
        return SimWorkload(cores=4, channels=1, pattern=FIG15_PATTERN,
                           densities=(8, 32), window_ns=12_500.0)
    if name == "sim-8core-4ch":
        from perfbench.sim import SimWorkload
        # Windows an eighth of fig15's: eight times the points per run.
        return SimWorkload(cores=8, channels=4, pattern=((0.0, 0),),
                           densities=(8, 32), window_ns=12_500.0)
    if name == "fleet-stream":
        from perfbench.fleet import FleetWorkload, stream_host, stream_tenants
        # At most one host waits while another runs, so a batch holds one
        # host: batching bypassed. The client polls only when the service
        # falls behind: a client polling the status after every seal took
        # the interpreter lock from the host it waited for, and its rate
        # swung twice as far as the machine's speed.
        return FleetWorkload(stream_tenants, stream_host,
                             max_outstanding=2, poll_s=0.001,
                             segment_hosts=50)
    if name == "fleet-compute":
        from perfbench.fleet import (
            FleetWorkload, compute_host, compute_tenants)
        # Up to eight hosts unfinished: a backlog, so batching engages.
        # A segment covers the twelve-workload rotation once.
        return FleetWorkload(compute_tenants, compute_host,
                             max_outstanding=8, poll_s=0.05,
                             segment_hosts=24)
    raise KeyError(name)
