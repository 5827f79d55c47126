"""Golden pins for the ALL-FAIL screen and resident-row bookkeeping.

The fleet's fault screen (``hostsim._screen_failing_fraction``) walks a
chip's rows chunk by chunk through :meth:`FaultMap.rows_can_ever_fail`
under a residency budget. These digests pin, bit for bit, what that
path produces: the screen's outputs, every resident population
(columns, thresholds, polarity, minimum threshold) in LRU order, and the
``dram.rows_evicted`` / ``dram.resident_rows`` metrics. They cover
budgets smaller than, equal to and larger than the batch, arbitrary
touch orders with repeated rows, and :class:`DisturbMap`, which shares
the eviction helper. Thresholds go through numpy's ``log``/``cos``/
``exp``, so the pins skip where those round differently from x86-64
with AVX-512 (see ``recorded_float_math`` in ``tests/conftest.py``).

Regenerate (only when a change is *meant* to alter populations) with::

    PYTHONPATH=src python tests/dram/test_screen_golden.py
"""

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.dram.disturb import DisturbMap, DisturbModelConfig
from repro.dram.faults import (
    RESIDENT_ROWS_GAUGE,
    ROWS_EVICTED_COUNTER,
    FaultMap,
    FaultModelConfig,
)
from repro.fleet.hostsim import _screen_failing_fraction

ROWS = 4096
BITS = 512
RATE = 5.0e-4
INTERVAL_MS = 328.0
BUDGETS = (None, 64, 1024)
CHUNKS = (64, 256, 4096)
CHIP_SEEDS = (1, 2)

pytestmark = pytest.mark.usefixtures("recorded_float_math")


def _screen_params(seed, budget, chunk):
    return {"seed": seed, "fault_screen": {
        "max_resident_rows": budget, "bits_per_row": BITS,
        "chunk_rows": chunk, "vulnerable_cell_rate": RATE,
        "interval_ms": INTERVAL_MS,
    }}


def populations_digest(populations) -> str:
    """SHA-256 over every resident row's population, in LRU order."""
    h = hashlib.sha256()
    for row, pop in populations.items():
        h.update(np.int64(row).tobytes())
        for array in (pop.columns, pop.thresholds):
            h.update(array.dtype.str.encode())
            h.update(np.int64(len(array)).tobytes())
            h.update(np.ascontiguousarray(array).tobytes())
        h.update(b"T" if pop.true_cell else b"A")
        min_threshold = getattr(pop, "min_threshold", None)
        if min_threshold is not None:
            h.update(np.float64(min_threshold).tobytes())
    return h.hexdigest()


def _metrics(registry):
    return (
        int(registry.counter(ROWS_EVICTED_COUNTER).value),
        int(registry.gauge(RESIDENT_ROWS_GAUGE).value),
    )


def _with_registry(fn):
    registry = obs.MetricsRegistry(enabled=True)
    previous = obs.set_registry(registry)
    try:
        return fn(registry)
    finally:
        obs.set_registry(previous)


def screen_case(seed, budget, chunk):
    """(screen dict, metrics after it) of the fleet's screen stage."""
    def run(registry):
        screen = _screen_failing_fraction(
            _screen_params(seed, budget, chunk), ROWS
        )
        return screen, _metrics(registry)

    return _with_registry(run)


def chunked_map_case(seed, budget, chunk):
    """The screen's chunk loop on a map kept alive to digest its state."""
    def run(registry):
        fm = FaultMap(ROWS, BITS, FaultModelConfig(vulnerable_cell_rate=RATE),
                      seed=seed, max_resident_rows=budget)
        failing, peak = 0, 0
        for start in range(0, ROWS, chunk):
            rows = np.arange(start, min(start + chunk, ROWS))
            failing += int(fm.rows_can_ever_fail(rows, INTERVAL_MS).sum())
            peak = max(peak, fm.resident_rows())
        return (failing, peak, populations_digest(fm._populations),
                _metrics(registry))

    return _with_registry(run)


def touches_case(budget):
    """Unsorted batches with repeated rows through every batch API."""
    def run(registry):
        fm = FaultMap(ROWS, BITS, FaultModelConfig(vulnerable_cell_rate=RATE),
                      seed=5, max_resident_rows=budget)
        rng = np.random.default_rng(21)
        h = hashlib.sha256()
        for step in range(40):
            rows = rng.integers(0, ROWS, size=int(rng.integers(1, 300)))
            h.update(fm.rows_can_ever_fail(rows, INTERVAL_MS).tobytes())
            if step % 5 == 0:
                bits = rng.integers(0, 2, size=BITS, dtype=np.uint8)
                h.update(fm.rows_fail(rows, bits, 600.0).tobytes())
                hit_rows, hit_cols = fm.failing_cells_batch(rows, bits, 600.0)
                h.update(hit_rows.tobytes() + hit_cols.tobytes())
                cells = fm.cells_in_row(int(rows[-1]))
                h.update(repr(cells).encode())
        return (h.hexdigest(), populations_digest(fm._populations),
                _metrics(registry))

    return _with_registry(run)


def disturb_case(budget):
    """DisturbMap shares the LRU eviction helper: pin its state too."""
    def run(registry):
        dm = DisturbMap(ROWS, BITS,
                        DisturbModelConfig(hammer_vulnerable_rate=RATE),
                        seed=13, max_resident_rows=budget)
        rng = np.random.default_rng(2)
        h = hashlib.sha256()
        for _ in range(30):
            victims = np.unique(rng.integers(0, ROWS, size=rng.integers(1, 200)))
            pressures = rng.uniform(0.0, 200.0, size=len(victims))
            h.update(dm.rows_flip(victims, pressures, 64.0).tobytes())
        return (h.hexdigest(), populations_digest(dm._populations),
                _metrics(registry))

    return _with_registry(run)


#: (seed, budget, chunk) -> (screen dict, (rows_evicted, resident_rows)).
SCREEN_GOLDEN = {
    (1, None, 64):
        ({'failing_page_fraction': 0.126220703125, 'failing_pages': 517, 'resident_rows_peak': 4096}, (0, 0)),
    (1, None, 256):
        ({'failing_page_fraction': 0.126220703125, 'failing_pages': 517, 'resident_rows_peak': 4096}, (0, 0)),
    (1, None, 4096):
        ({'failing_page_fraction': 0.126220703125, 'failing_pages': 517, 'resident_rows_peak': 4096}, (0, 0)),
    (1, 64, 64):
        ({'failing_page_fraction': 0.126220703125, 'failing_pages': 517, 'resident_rows_peak': 64}, (4032, 0)),
    (1, 64, 256):
        ({'failing_page_fraction': 0.126220703125, 'failing_pages': 517, 'resident_rows_peak': 256}, (3840, 0)),
    (1, 64, 4096):
        ({'failing_page_fraction': 0.126220703125, 'failing_pages': 517, 'resident_rows_peak': 4096}, (0, 0)),
    (1, 1024, 64):
        ({'failing_page_fraction': 0.126220703125, 'failing_pages': 517, 'resident_rows_peak': 1024}, (3072, 0)),
    (1, 1024, 256):
        ({'failing_page_fraction': 0.126220703125, 'failing_pages': 517, 'resident_rows_peak': 1024}, (3072, 0)),
    (1, 1024, 4096):
        ({'failing_page_fraction': 0.126220703125, 'failing_pages': 517, 'resident_rows_peak': 4096}, (0, 0)),
    (2, None, 64):
        ({'failing_page_fraction': 0.124755859375, 'failing_pages': 511, 'resident_rows_peak': 4096}, (0, 0)),
    (2, None, 256):
        ({'failing_page_fraction': 0.124755859375, 'failing_pages': 511, 'resident_rows_peak': 4096}, (0, 0)),
    (2, None, 4096):
        ({'failing_page_fraction': 0.124755859375, 'failing_pages': 511, 'resident_rows_peak': 4096}, (0, 0)),
    (2, 64, 64):
        ({'failing_page_fraction': 0.124755859375, 'failing_pages': 511, 'resident_rows_peak': 64}, (4032, 0)),
    (2, 64, 256):
        ({'failing_page_fraction': 0.124755859375, 'failing_pages': 511, 'resident_rows_peak': 256}, (3840, 0)),
    (2, 64, 4096):
        ({'failing_page_fraction': 0.124755859375, 'failing_pages': 511, 'resident_rows_peak': 4096}, (0, 0)),
    (2, 1024, 64):
        ({'failing_page_fraction': 0.124755859375, 'failing_pages': 511, 'resident_rows_peak': 1024}, (3072, 0)),
    (2, 1024, 256):
        ({'failing_page_fraction': 0.124755859375, 'failing_pages': 511, 'resident_rows_peak': 1024}, (3072, 0)),
    (2, 1024, 4096):
        ({'failing_page_fraction': 0.124755859375, 'failing_pages': 511, 'resident_rows_peak': 4096}, (0, 0)),
}
#: (seed, budget, chunk) -> (failing, peak, populations, metrics).
CHUNKED_GOLDEN = {
    (1, None, 64):
        (517, 4096, '513f585b7842f4faaecc5a408df00c0e8c1ecca526807c50952e3abd69585e82', (0, 4096)),
    (1, None, 256):
        (517, 4096, '513f585b7842f4faaecc5a408df00c0e8c1ecca526807c50952e3abd69585e82', (0, 4096)),
    (1, None, 4096):
        (517, 4096, '513f585b7842f4faaecc5a408df00c0e8c1ecca526807c50952e3abd69585e82', (0, 4096)),
    (1, 64, 64):
        (517, 64, '82307f99d2bd18e00eba9ee10e9382b2e048f56ebf3aee6e0d48572ca2a86a9f', (4032, 64)),
    (1, 64, 256):
        (517, 256, '4cfd362e6f7a364c1dd44c7d7962ed5b3528d11b53f25e0632c4b66c2482ce5a', (3840, 256)),
    (1, 64, 4096):
        (517, 4096, '513f585b7842f4faaecc5a408df00c0e8c1ecca526807c50952e3abd69585e82', (0, 4096)),
    (1, 1024, 64):
        (517, 1024, '0492efb4f1664fd99cbdf12eaf1fea9eb03b9e39815b10597e0d489023c8c582', (3072, 1024)),
    (1, 1024, 256):
        (517, 1024, '0492efb4f1664fd99cbdf12eaf1fea9eb03b9e39815b10597e0d489023c8c582', (3072, 1024)),
    (1, 1024, 4096):
        (517, 4096, '513f585b7842f4faaecc5a408df00c0e8c1ecca526807c50952e3abd69585e82', (0, 4096)),
    (2, None, 64):
        (511, 4096, '4e97438c28b55121d3e5a1d25e6ded443de603f5ca2ff0ef4dfcf5bc03bf4165', (0, 4096)),
    (2, None, 256):
        (511, 4096, '4e97438c28b55121d3e5a1d25e6ded443de603f5ca2ff0ef4dfcf5bc03bf4165', (0, 4096)),
    (2, None, 4096):
        (511, 4096, '4e97438c28b55121d3e5a1d25e6ded443de603f5ca2ff0ef4dfcf5bc03bf4165', (0, 4096)),
    (2, 64, 64):
        (511, 64, '29b2d6c9634a411f2dc27cff961cb1ce15922906494c4a5248cda9cb2ef8680a', (4032, 64)),
    (2, 64, 256):
        (511, 256, '15affe684996e407d06306895f9a0cdbf684894a6075d1e02d6b37145d56a54d', (3840, 256)),
    (2, 64, 4096):
        (511, 4096, '4e97438c28b55121d3e5a1d25e6ded443de603f5ca2ff0ef4dfcf5bc03bf4165', (0, 4096)),
    (2, 1024, 64):
        (511, 1024, '346fd9f4009e8338992201c20eaf51278ccb8f2c1f57f83aff657518ef0512c2', (3072, 1024)),
    (2, 1024, 256):
        (511, 1024, '346fd9f4009e8338992201c20eaf51278ccb8f2c1f57f83aff657518ef0512c2', (3072, 1024)),
    (2, 1024, 4096):
        (511, 4096, '4e97438c28b55121d3e5a1d25e6ded443de603f5ca2ff0ef4dfcf5bc03bf4165', (0, 4096)),
}
#: budget -> (results digest, populations digest, metrics).
TOUCHES_GOLDEN = {
    None:
        ('96e304f966f1a3c57c44bb021e7ed71a985d220b20459cda455e155d57d44566', 'ef611d315756e91c76e60731acc325b1cc5b30e7ed9189ebb1968e9ca992e31e', (0, 3229)),
    64:
        ('96e304f966f1a3c57c44bb021e7ed71a985d220b20459cda455e155d57d44566', '35f22325ad94f07d841e7d7dab1da53736947bbd9114121732bad6631973ec5d', (5915, 64)),
    1024:
        ('96e304f966f1a3c57c44bb021e7ed71a985d220b20459cda455e155d57d44566', '2aad7061184641e42e1295072d5ea879e5043af9e8747408e961d527cae634d8', (3773, 1024)),
}
DISTURB_GOLDEN = {
    None:
        ('161b8d19f3357e769fb68876c5d862354f979957850d3ca508a187c0c8f9d35a', '7b73647d9aa3b61cbfbe6c25d5db6b2a8c602ca0c6ce317a4d2e9d42bc09d2f9', (0, 1921)),
    16:
        ('161b8d19f3357e769fb68876c5d862354f979957850d3ca508a187c0c8f9d35a', '0c01bb1b66ab8c0b9f002c1a2a77b571b96748f9989eb738acabdf75986a6df4', (2537, 34)),
    64:
        ('161b8d19f3357e769fb68876c5d862354f979957850d3ca508a187c0c8f9d35a', '858fec8117605405ff8ddce5689c518abb8bb3454a2547dc8143be0bad13cad1', (2498, 64)),
}

GRID = [(seed, budget, chunk) for seed in CHIP_SEEDS
        for budget in BUDGETS for chunk in CHUNKS]


@pytest.mark.parametrize("seed,budget,chunk", GRID)
def test_screen_pinned(seed, budget, chunk):
    assert screen_case(seed, budget, chunk) == SCREEN_GOLDEN[
        (seed, budget, chunk)]


@pytest.mark.parametrize("seed,budget,chunk", GRID)
def test_chunked_populations_pinned(seed, budget, chunk):
    assert chunked_map_case(seed, budget, chunk) == CHUNKED_GOLDEN[
        (seed, budget, chunk)]


@pytest.mark.parametrize("budget", BUDGETS)
def test_touch_order_pinned(budget):
    assert touches_case(budget) == TOUCHES_GOLDEN[budget]


@pytest.mark.parametrize("budget", (None, 16, 64))
def test_disturbmap_state_pinned(budget):
    assert disturb_case(budget) == DISTURB_GOLDEN[budget]


def _record() -> None:  # pragma: no cover - regeneration helper
    print("SCREEN_GOLDEN = {")
    for key in GRID:
        print(f"    {key!r}:\n        {screen_case(*key)!r},")
    print("}\nCHUNKED_GOLDEN = {")
    for key in GRID:
        print(f"    {key!r}:\n        {chunked_map_case(*key)!r},")
    print("}\nTOUCHES_GOLDEN = {")
    for budget in BUDGETS:
        print(f"    {budget!r}:\n        {touches_case(budget)!r},")
    print("}\nDISTURB_GOLDEN = {")
    for budget in (None, 16, 64):
        print(f"    {budget!r}:\n        {disturb_case(budget)!r},")
    print("}")


if __name__ == "__main__":  # pragma: no cover
    _record()
