"""Fleet workloads: a closed loop of register -> stream -> seal."""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.workloads import Measure, direct
from repro import obs
from repro.fleet import FleetClient, FleetService, host_table, run_host
from repro.fleet.server import run_service_in_thread
from repro.traces.generator import clear_trace_cache
from repro.traces.workloads import WORKLOADS

STREAM_SCREEN = {"max_resident_rows": 64, "bits_per_row": 512,
                 "chunk_rows": 64, "vulnerable_cell_rate": 5.0e-4}
STREAM_PAGES = 256
TRACE_RECORDS = 5
TRACE_MS = 2048.0
#: Hosts whose served table is re-rendered and compared after a run.
CHECK_HOSTS = 4


def stream_writes(rng: np.random.Generator, pages: int) -> Dict[int, List[float]]:
    """A five-record write trace: five pages, one to three writes each."""
    chosen = rng.choice(pages, size=TRACE_RECORDS, replace=False)
    return {
        int(page): sorted(float(t) for t in
                          rng.uniform(0.0, TRACE_MS, int(rng.integers(1, 4))))
        for page in chosen
    }


class FleetWorkload:
    """A closed loop of register -> stream -> seal against the service.

    ``hosts`` turns a host number into ``(registration, writes)``. While
    ``max_outstanding`` sealed hosts are unfinished the client waits,
    polling the status every ``poll_s`` seconds. Every ``segment_hosts``
    submitted hosts close a segment of the measure.
    """

    def __init__(self, tenants: Callable[[int], List[Dict[str, Any]]],
                 hosts: Callable[[int, int], Tuple[Dict[str, Any], Dict]],
                 max_outstanding: int, poll_s: float,
                 segment_hosts: int) -> None:
        self.tenants = tenants
        self.hosts = hosts
        self.max_outstanding = max_outstanding
        self.poll_s = poll_s
        self.segment_hosts = segment_hosts
        self.seed = 0
        self.next_host = 0
        self.sealed: List[str] = []
        self.service: Optional[FleetService] = None
        self.client: Optional[FleetClient] = None
        self._thread = None
        self.backlog_peak = 0
        #: Wraps each HTTP call (spans).
        self.wrap: Callable[..., Any] = direct

    def setup(self, seed: int) -> None:
        self.seed = seed
        # The service's own configuration (``repro.fleet.serve``).
        obs.set_registry(obs.MetricsRegistry(enabled=True))
        self.service = FleetService(jobs=1)
        server, self._thread = run_service_in_thread(self.service)
        self.client = FleetClient(port=server.port)
        for tenant in self.tenants(seed):
            self.client.register_tenant(tenant)
        self.sealed = []

    def _call(self, measure: Measure, name: str, host_id: str, fn, *args):
        started = time.perf_counter()
        out = self.wrap(name, host_id, fn, *args)
        measure.latencies_s.append(time.perf_counter() - started)
        return out

    def run_until(self, deadline: float, measure: Measure) -> None:
        client = self.client
        first = segment_start = time.perf_counter()
        submitted = 0
        outstanding = 0
        while not measure.attempted or time.perf_counter() < deadline:
            spec, writes = self.hosts(self.seed, self.next_host)
            self.next_host += 1
            host_id = spec["host_id"]
            measure.attempted += 1
            try:
                self._call(measure, "http.register", host_id,
                           client.register_host, spec)
                if writes:
                    self._call(measure, "http.stream", host_id,
                               client.stream_trace, host_id, writes)
                sealed = self._call(measure, "http.seal", host_id,
                                    client.seal, host_id)
            except Exception as exc:  # an HTTP error fails this host
                measure.fail(f"{host_id}: {exc!r}")
                continue
            self.sealed.append(host_id)
            submitted += 1
            outstanding = sealed["backlog"]
            self.backlog_peak = max(self.backlog_peak, outstanding)
            while outstanding >= self.max_outstanding:
                time.sleep(self.poll_s)
                outstanding = self._backlog()
            if submitted % self.segment_hosts == 0:
                now = time.perf_counter()
                measure.segments.append((self.segment_hosts,
                                         now - segment_start))
                segment_start = now
        while self._backlog():
            time.sleep(self.poll_s)
        measure.wall_s += time.perf_counter() - first
        measure.ops += submitted

    def _backlog(self) -> int:
        status = self.wrap("http.status", None, self.client.status)
        return status["queue"]["backlog"]

    def check(self, measure: Measure) -> None:
        """Every host done and none failed; a fixed sample of served
        tables equals ``host_table(run_host(params))`` byte for byte."""
        counts = self.client.status()["hosts"]
        if counts["failed"] or counts["done"] != len(self.sealed):
            measure.fail(f"host counts {counts}, {len(self.sealed)} sealed")
        clear_trace_cache()  # re-render from scratch, not from the cache
        n = len(self.sealed)
        for index in sorted({n * k // CHECK_HOSTS for k in range(CHECK_HOSTS)}):
            host_id = self.sealed[index]
            measure.attempted += 1
            params = self.client.host_detail(host_id)["params"]
            served = self.client.host_table(host_id)
            if host_table(run_host(params)) != served:
                measure.fail(f"{host_id}: served table differs from run_host")

    def close(self) -> None:
        if self.client is not None:
            try:
                self.client.shutdown()
            finally:
                self._thread.join(timeout=60)
                self.service.close(wait=True)
                self.client = None


def stream_tenants(seed: int) -> List[Dict[str, Any]]:
    return [{"tenant_id": "stream", "duration_ms": TRACE_MS,
             "seed_base": seed, "fault_screen": dict(STREAM_SCREEN)}]


def stream_host(seed: int, i: int) -> Tuple[Dict[str, Any], Dict]:
    rng = np.random.default_rng([seed, i])
    return ({"host_id": f"s{i:06d}", "tenant": "stream",
             "total_pages": STREAM_PAGES},
            stream_writes(rng, STREAM_PAGES))


#: fleet-compute sizing: generated-trace window and screened rows.
GEN_DURATION_MS = 5_000.0
SCREEN_ROWS = 4_096
COMPUTE_SCREEN = {"max_resident_rows": 1024, "bits_per_row": 512,
                  "chunk_rows": 256, "vulnerable_cell_rate": 5.0e-4}
ROTATION = sorted(WORKLOADS)


def compute_tenants(seed: int) -> List[Dict[str, Any]]:
    return [
        {"tenant_id": "gen", "duration_ms": GEN_DURATION_MS,
         "seed_base": seed},
        {"tenant_id": "screen", "duration_ms": TRACE_MS,
         "seed_base": seed + 1, "fault_screen": dict(COMPUTE_SCREEN)},
    ]


def compute_host(seed: int, i: int) -> Tuple[Dict[str, Any], Dict]:
    """Even hosts: a generated Table-1 trace, rotating through the
    twelve workloads. Odd hosts: a streamed trace plus a large screen."""
    if i % 2 == 0:
        workload = ROTATION[(i // 2) % len(ROTATION)]
        return ({"host_id": f"g{i:06d}", "tenant": "gen",
                 "workload": workload}, {})
    rng = np.random.default_rng([seed, i])
    return ({"host_id": f"c{i:06d}", "tenant": "screen",
             "total_pages": SCREEN_ROWS},
            stream_writes(rng, SCREEN_ROWS))
