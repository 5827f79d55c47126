"""Trace-driven CPU core model.

Follows the standard simple-core abstraction used by Ramulator-style
evaluations: the core retires non-memory instructions at its issue width
(4-wide at 4 GHz), issues a last-level-cache-miss DRAM read every
``1000 / MPKI`` instructions on average, overlaps up to ``max_outstanding``
misses (memory-level parallelism afforded by the 128-entry window), and
stalls when that limit is reached. Writebacks are posted: they consume
DRAM bandwidth but the core never waits on them.

The synthetic request stream carries each benchmark's row-buffer locality:
with probability ``row_hit_rate`` a request targets the same (bank, row)
as the previous request from this core, otherwise a fresh random row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..mc.request import Request, RequestKind
from ..traces.spec import BenchmarkProfile


@dataclass
class CoreConfig:
    """Core microarchitecture parameters (paper Table 2)."""

    freq_ghz: float = 4.0
    width: int = 4
    max_outstanding: int = 8   # MLP supported by the 128-entry window

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0 or self.width <= 0 or self.max_outstanding <= 0:
            raise ValueError("core parameters must be positive")

    @property
    def instructions_per_ns(self) -> float:
        """Peak retirement rate (instructions per nanosecond)."""
        return self.freq_ghz * self.width


class TraceCore:
    """One core running a synthetic benchmark stream.

    The core's private clock advances in two ways: retiring the
    instruction gap before each memory request (at peak width), and being
    dragged forward by read completions while the outstanding-miss window
    is full (stall time). The issue time of the next request is always
    derived from the *current* clock, so stalls transparently delay it.
    """

    def __init__(
        self,
        core_id: int,
        benchmark: BenchmarkProfile,
        config: Optional[CoreConfig] = None,
        banks: int = 8,
        rows_per_bank: int = 32768,
        channels: int = 1,
        seed: int = 0,
    ) -> None:
        if channels <= 0:
            raise ValueError("channels must be positive")
        self.core_id = core_id
        self.benchmark = benchmark
        self.config = config or CoreConfig()
        self.banks = banks
        self.rows_per_bank = rows_per_bank
        self.channels = channels
        self._rng = np.random.default_rng((seed << 8) ^ core_id)
        self.instructions_retired = 0.0
        self.outstanding = 0
        #: Demand reads issued so far (the run-end conservation check).
        self.reads_issued = 0
        self.stall_ns = 0.0
        self._clock_ns = 0.0
        self._last_channel = 0
        self._last_bank = 0
        self._last_row = 0
        self._ipns = self.config.instructions_per_ns
        inter_miss = 1000.0 / benchmark.mpki if benchmark.mpki > 0 else None
        self._inter_miss_mean = inter_miss
        #: Instructions until the next memory request (None = never).
        self._pending_gap = (
            None if inter_miss is None
            else float(self._rng.exponential(inter_miss))
        )
        #: When the next request issues unless the core stalls first
        #: (None = never); kept current whenever the clock or gap moves.
        self.issue_at = self._issue_time()

    def _issue_time(self) -> Optional[float]:
        if self._pending_gap is None:
            return None
        return self._clock_ns + self._pending_gap / self._ipns

    # ------------------------------------------------------------------
    @property
    def stalled(self) -> bool:
        return self.outstanding >= self.config.max_outstanding

    def next_arrival_hint(self, now_ns: float) -> Optional[float]:
        """When this core will next want to issue, if it is not stalled."""
        if self.stalled:
            return None
        return self.issue_at

    def next_request(self, now_ns: float) -> Optional[Request]:
        """Issue the next request if the core has reached it by ``now_ns``."""
        if self.stalled or self.issue_at is None or self.issue_at > now_ns:
            return None
        return self.issue()

    def issue(self) -> Request:
        """Issue the request due at :attr:`issue_at`.

        The caller has checked that the core is not stalled and that the
        request is due. Draw order per request — instruction gap, write
        coin, locality coin, then channel/bank/row on a locality break —
        is the core's whole RNG stream, so it must not change.
        """
        rng = self._rng
        issue_at = self.issue_at
        self.instructions_retired += self._pending_gap
        self._clock_ns = issue_at
        gap = float(rng.exponential(self._inter_miss_mean))
        self._pending_gap = gap
        self.issue_at = issue_at + gap / self._ipns
        is_write = rng.random() < self.benchmark.write_fraction
        if rng.random() < self.benchmark.row_hit_rate:
            channel = self._last_channel
            bank = self._last_bank
            row = self._last_row
        else:
            channel = self._last_channel = int(rng.integers(self.channels))
            bank = self._last_bank = int(rng.integers(self.banks))
            row = self._last_row = int(rng.integers(self.rows_per_bank))
        if is_write:
            return Request(RequestKind.WRITE, self.core_id, bank, row,
                           issue_at, channel)
        self.outstanding += 1
        self.reads_issued += 1
        return Request(RequestKind.READ, self.core_id, bank, row,
                       issue_at, channel)

    def complete_read(self, request: Request, now_ns: float) -> None:
        """A demand read came back; release its window slot."""
        if request.core != self.core_id:
            raise ValueError("request belongs to another core")
        if self.outstanding <= 0:
            raise RuntimeError("read completion with no outstanding reads")
        was_stalled = self.stalled
        self.outstanding -= 1
        if was_stalled and now_ns > self._clock_ns:
            # The window was full: the core made no progress while this
            # read was the gating miss.
            self.stall_ns += now_ns - self._clock_ns
            self._clock_ns = now_ns
            self.issue_at = self._issue_time()

    # ------------------------------------------------------------------
    def ipc(self, elapsed_ns: float) -> float:
        """Committed instructions per *CPU* cycle over the run."""
        if elapsed_ns <= 0:
            raise ValueError("elapsed_ns must be positive")
        cycles = elapsed_ns * self.config.freq_ghz
        return self.instructions_retired / cycles
