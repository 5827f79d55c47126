"""Shared fixtures for the test suite."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.dram import DramDevice, DramGeometry, TINY_MODULE
from repro.dram.faults import FaultMap, FaultModelConfig
from repro.traces.events import WriteTrace


@pytest.fixture
def obs_env():
    """A fresh enabled registry + in-memory trace sink, restored afterwards.

    Yields ``(registry, sink)``. Tests that exercise instrumented code
    paths use this so counters and events are recorded without leaking
    observability state into other tests.
    """
    registry = obs.MetricsRegistry(enabled=True)
    sink = obs.ListTraceSink()
    previous_registry = obs.set_registry(registry)
    previous_sink = obs.set_sink(sink)
    try:
        yield registry, sink
    finally:
        obs.set_registry(previous_registry)
        obs.set_sink(previous_sink)


@pytest.fixture
def tiny_geometry() -> DramGeometry:
    return TINY_MODULE


@pytest.fixture
def dense_fault_device() -> DramDevice:
    """A small device with a dense fault population (fast, many failures)."""
    geometry = DramGeometry(
        channels=1, ranks=1, banks=2, rows_per_bank=32,
        row_size_bytes=512, block_size_bytes=64,
    )
    device = DramDevice(geometry, seed=7)
    device.cells.fault_map = FaultMap(
        total_rows=geometry.total_rows,
        bits_per_row=device.cells.vendor_mapping.physical_columns,
        config=FaultModelConfig(vulnerable_cell_rate=5e-3),
        seed=7,
    )
    return device


def make_trace(writes: dict, duration_ms: float = 10_000.0,
               total_pages: int = 16, name: str = "test") -> WriteTrace:
    """Small literal write trace for unit tests."""
    return WriteTrace(
        duration_ms=duration_ms,
        writes={p: np.asarray(t, dtype=np.float64) for p, t in writes.items()},
        total_pages=total_pages,
        name=name,
    )


@pytest.fixture
def trace_factory():
    return make_trace


def float_math_digest() -> str:
    """SHA-256 of numpy's float64 math and RNG draws on fixed inputs.

    Golden digests of traces and fault populations depend on how this
    platform's numpy rounds ``power``, ``exp``, ``log``, ``cos`` and
    ``sqrt`` (SIMD routines on x86-64 with AVX-512 round differently
    from the C library) and on the ``Generator`` algorithms.
    """
    rng = np.random.default_rng(12345)
    u = rng.random(4096)
    parts = [u ** (-1.0 / alpha) for alpha in (0.58, 0.66, 0.7, 0.8, 1.0)]
    parts += [np.exp(4.0 * u), np.log(u + 2.0 ** -53), np.cos(6.283 * u),
              np.sqrt(u), rng.exponential(0.08, 256),
              rng.poisson(25.0, 256).astype(np.float64)]
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
    return h.hexdigest()


#: ``float_math_digest()`` where the golden digests were recorded
#: (x86-64 with AVX-512, numpy 2.4).
RECORDED_FLOAT_MATH = (
    "0b634a11b63a4f537f14b07110dda91f0dc031393c07249095649f0bff33c265"
)


@pytest.fixture
def recorded_float_math():
    """Skip a bit-level golden test on a platform whose numpy float math
    or RNG rounds differently from the recording platform's: there the
    digests differ for a reason that is not the code under test."""
    if float_math_digest() != RECORDED_FLOAT_MATH:
        pytest.skip("numpy float64 math/RNG differ from the platform the "
                    "golden digests were recorded on")
