"""Synthetic write-trace generation (the HMTT substitution).

Each written page alternates between *write episodes* (a geometric number
of writes with sub-millisecond spacing — the >95% of writes that land
within 1 ms of the previous one) and *idle gaps* drawn from a Pareto
distribution. The Pareto scale ``xm`` is sampled log-uniformly per page, so
hot pages (small ``xm``) write often while cold pages idle for seconds;
a log-uniform mixture of same-index Pareto tails pools into a clean power
law on log-log axes, matching the straight-line fits of the paper's
Figure 8 while keeping per-page write counts realistic.
"""

from __future__ import annotations

import dataclasses
import math
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .content import name_seed
from .events import WriteTrace
from .workloads import WorkloadProfile


def pareto_gaps(
    rng: np.random.Generator, n: int, xm_ms: float, alpha: float
) -> np.ndarray:
    """``n`` Pareto(xm, alpha) idle gaps, in milliseconds."""
    # Inverse-CDF sampling: P(X > x) = (xm / x) ** alpha for x >= xm.
    return xm_ms * rng.random(n) ** (-1.0 / alpha)


#: Relative slack of the approximate clock. The episode loops decide
#: when a page stops on a clock summed in Python floats with a scalar
#: Pareto power; a decision within ``slack * duration_ms`` of the window
#: end is settled on the exact clock instead. The approximate clock is
#: off by a few ulps per step, so any slack far above
#: ``steps * 2**-52`` keeps every decision exact.
_CLOCK_SLACK = 1e-6


def _pareto_power(uniforms: Sequence[float], exponent: float) -> np.ndarray:
    """``u ** exponent`` as numpy's array power, for the exact clock."""
    return np.array(uniforms, dtype=np.float64) ** exponent


def _burst_clock(
    t0: float,
    episodes: List[Tuple[np.ndarray, float]],
    xm_ms: float,
    exponent: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """A streaming page's exact clock and the positions of its gaps.

    ``episodes`` holds each episode's (burst spacings, gap uniform). The
    clock is one sequential ``cumsum`` over ``[t0, burst spacings, gap,
    burst spacings, gap, ...]``.
    """
    bursts, uniforms = zip(*episodes)
    counts = np.fromiter(map(len, bursts), np.intp, len(bursts))
    gap_at = (counts + 1).cumsum()
    chain = np.empty(gap_at[-1] + 1, dtype=np.float64)
    chain[0] = t0
    chain[gap_at] = xm_ms * _pareto_power(uniforms, exponent)
    is_spacing = np.ones(len(chain), dtype=bool)
    is_spacing[0] = False
    is_spacing[gap_at] = False
    chain[is_spacing] = np.concatenate(bursts)
    return chain.cumsum(), gap_at


def _single_write_pages(
    rng: np.random.Generator,
    duration_ms: float,
    xms: Iterable[float],
    pareto_alpha: float,
    burst_spacing_ms: float,
    start_ms: Optional[float] = None,
) -> List[np.ndarray]:
    """Write times of consecutive single-write pages, one array per page.

    ``xms`` yields each page's Pareto scale and may itself draw from
    ``rng``: it is consumed page by page, in stream order. The loop only
    records each page's start and its episodes' spacing and uniform;
    then one array power gives every gap and one pass per episode
    index, across all pages at once, runs every page's exact clock
    (``t = (t + spacing) + gap``).
    """
    exponent = -1.0 / pareto_alpha
    uniform, exponential = rng.random, rng.exponential
    slack = _CLOCK_SLACK * duration_ms
    near, far = duration_ms - slack, duration_ms + slack
    pages: List[Tuple[float, float, int]] = []  # (start, xm, episodes)
    episodes: List[Tuple[float, float]] = []  # (spacing, gap uniform)
    record = episodes.append
    for xm in xms:
        t0 = t = (
            rng.uniform(0.0, min(xm, duration_ms))
            if start_ms is None else float(start_ms)
        )
        first = len(episodes)
        while t < duration_ms:
            spacing = exponential(burst_spacing_ms)
            u = uniform()
            record((spacing, u))
            try:
                t = (t + spacing) + xm * u ** exponent
            except (ZeroDivisionError, OverflowError):  # u == 0: no end
                t = math.inf
            if near <= t <= far:
                spacings, uniforms = zip(*episodes[first:])
                t = t0
                gaps = xm * _pareto_power(uniforms, exponent)
                for spacing, gap in zip(spacings, gaps.tolist()):
                    t = (t + spacing) + gap
        pages.append((t0, xm, len(episodes) - first))
    starts, scales, counts = zip(*pages) if pages else ((), (), ())
    spacings, uniforms = zip(*episodes) if episodes else ((), ())
    n = np.array(counts, dtype=np.intp)
    offsets = n.cumsum() - n
    gaps = np.repeat(np.array(scales, dtype=np.float64), n)
    gaps *= _pareto_power(uniforms, exponent)
    steps = np.array(spacings, dtype=np.float64)
    writes = np.empty(len(uniforms), dtype=np.float64)
    # Pages by descending episode count: episode k's pages are a prefix.
    order = np.argsort(-n, kind="stable")
    clock = np.array(starts, dtype=np.float64)[order]
    first_write = offsets[order]
    # pages_with[k]: how many pages have more than k episodes.
    pages_with = np.searchsorted(-n[order], -np.arange(n.max(initial=0)))
    for k, m in enumerate(pages_with.tolist()):
        at = first_write[:m] + k
        writes[at] = clock[:m]
        clock[:m] = (clock[:m] + steps[at]) + gaps[at]
    return [writes[o:o + c] for o, c in zip(offsets.tolist(), counts)]


def generate_page_writes(
    rng: np.random.Generator,
    duration_ms: float,
    xm_ms: float,
    pareto_alpha: float,
    burst_extra_mean: float,
    burst_spacing_ms: float,
    start_ms: Optional[float] = None,
) -> np.ndarray:
    """Write timestamps for a single page over [0, duration_ms).

    The page starts at a random offset, then alternates a write episode of
    ``1 + Poisson(burst_extra_mean)`` writes with a Pareto(xm, alpha) idle
    gap until the window ends.

    Each episode draws, in this order: the Poisson burst extra (skipped
    when ``burst_extra_mean`` is 0, since ``Poisson(0)`` consumes no RNG
    bits), one exponential spacing per write, then one uniform for the
    Pareto gap, which is drawn even on the episode that crosses the
    window end. Timestamps are the running sum of the start, the
    spacings and the gaps in that order, rounded step by step as a
    sequential ``cumsum`` rounds; a burst cut by the window end keeps
    the writes before it. The gap is ``xm * u ** (-1 / alpha)`` as a
    numpy *array* power: numpy's array power rounds differently from
    scalar ``**``, and an element's array power does not depend on the
    array around it.

    The episode loop only records the draws, stopping on an approximate
    Python-float clock (see ``_CLOCK_SLACK``); every gap then comes from
    one array power and every timestamp from one exact pass. DESIGN.md
    ("Trace generator RNG contract") spells out the contract every trace
    in the repo depends on.
    """
    if duration_ms <= 0:
        raise ValueError("duration_ms must be positive")
    if xm_ms <= 0 or pareto_alpha <= 0:
        raise ValueError("Pareto parameters must be positive")
    if burst_extra_mean < 0:
        raise ValueError("burst_extra_mean must be non-negative")
    if not burst_extra_mean:
        return _single_write_pages(
            rng, duration_ms, (xm_ms,), pareto_alpha, burst_spacing_ms,
            start_ms,
        )[0]
    t = (
        rng.uniform(0.0, min(xm_ms, duration_ms))
        if start_ms is None else float(start_ms)
    )
    if not t < duration_ms:
        return np.array([], dtype=np.float64)
    exponent = -1.0 / pareto_alpha
    uniform, exponential, poisson = rng.random, rng.exponential, rng.poisson
    slack = _CLOCK_SLACK * duration_ms
    near, far = duration_ms - slack, duration_ms + slack
    t0 = t
    episodes: List[Tuple[np.ndarray, float]] = []
    record = episodes.append
    while True:
        spacings = exponential(burst_spacing_ms, 1 + poisson(burst_extra_mean))
        u = uniform()
        record((spacings, u))
        try:
            t += sum(spacings.tolist()) + xm_ms * u ** exponent
        except (ZeroDivisionError, OverflowError):  # u == 0: no end
            t = math.inf
        if near <= t <= far:
            clock, _ = _burst_clock(t0, episodes, xm_ms, exponent)
            t = float(clock[-1])
        if not t < duration_ms:
            break
    clock, gap_at = _burst_clock(t0, episodes, xm_ms, exponent)
    # A burst's last spacing lands on its end, not on a write.
    keep = clock < duration_ms
    keep[gap_at - 1] = False
    return clock[keep]


#: Deterministic traces keyed by (profile type + fields, seed, window).
#: Every figure experiment regenerates the same dozen traces from the
#: same inputs; caching makes the repeats free. Consumers treat returned
#: traces as immutable (nothing in the repo mutates a WriteTrace).
#: The cache is a true LRU (hits refresh recency) with a configurable
#: limit — fleet runs cycle through many per-tenant profiles, so the
#: resident set must be boundable (and growable) per deployment.
_TRACE_CACHE: "OrderedDict[tuple, WriteTrace]" = OrderedDict()
_TRACE_CACHE_LIMIT = 32


def set_trace_cache_limit(limit: int) -> int:
    """Set the trace-cache capacity; returns the previous limit.

    ``0`` disables caching entirely (and clears the cache); shrinking
    below the current population evicts least-recently-used traces.
    """
    global _TRACE_CACHE_LIMIT
    if limit < 0:
        raise ValueError("trace cache limit must be >= 0")
    previous = _TRACE_CACHE_LIMIT
    _TRACE_CACHE_LIMIT = limit
    while len(_TRACE_CACHE) > limit:
        _TRACE_CACHE.popitem(last=False)
    return previous


def trace_cache_info() -> Dict[str, int]:
    """Current size/limit of the trace cache (for status endpoints)."""
    return {"size": len(_TRACE_CACHE), "limit": _TRACE_CACHE_LIMIT}


def clear_trace_cache() -> None:
    _TRACE_CACHE.clear()


def _cache_key(
    profile: WorkloadProfile, seed: int, window: float
) -> Optional[tuple]:
    """Defensive cache key: type + every field + normalized seed/window.

    Including the concrete type guards against two profile classes whose
    fields happen to collide; subclasses and non-dataclass stand-ins
    (whose extra state ``astuple`` would miss) and unhashable field
    values opt out of caching instead of aliasing someone else's trace.
    """
    if type(profile) is not WorkloadProfile:
        return None
    try:
        key = (
            type(profile).__qualname__,
            dataclasses.astuple(profile),
            int(seed),
            float(window),
        )
        hash(key)
    except (TypeError, ValueError):
        return None
    return key


def generate_trace(
    profile: WorkloadProfile,
    seed: int = 0,
    duration_ms: Optional[float] = None,
) -> WriteTrace:
    """Generate the full write trace for one workload profile.

    Results are cached: generation is a pure function of the profile,
    the seed and the window, and the cache key covers all three.
    """
    window = duration_ms if duration_ms is not None else profile.duration_ms
    registry = obs.get_registry()
    key = _cache_key(profile, seed, window) if _TRACE_CACHE_LIMIT else None
    cached = _TRACE_CACHE.get(key) if key is not None else None
    if cached is not None:
        _TRACE_CACHE.move_to_end(key)
        registry.counter("traces.cache_hits").inc()
        return cached
    registry.counter("traces.cache_misses").inc()
    rng = np.random.default_rng((seed << 16) ^ name_seed(profile.name))

    n_written = int(round(profile.n_pages * profile.written_page_fraction))
    n_streaming = int(round(n_written * profile.streaming_page_fraction))
    # Streaming pages: dense bursts, short idle gaps. These hold almost
    # all the writes (the >95%-within-1-ms mass).
    stream_log_xm = (
        np.log(profile.stream_xm_lo_ms), np.log(profile.stream_xm_hi_ms)
    )
    # Regular pages: isolated writebacks separated by long gaps — the
    # single-write-per-quantum episodes PRIL can track.
    regular_log_xm = (
        np.log(profile.regular_xm_lo_ms), np.log(profile.regular_xm_hi_ms)
    )
    pages: List[np.ndarray] = [
        generate_page_writes(
            rng,
            duration_ms=window,
            xm_ms=float(np.exp(rng.uniform(*stream_log_xm))),
            pareto_alpha=profile.pareto_alpha,
            burst_extra_mean=profile.burst_length_mean,
            burst_spacing_ms=profile.burst_spacing_ms,
        )
        for _ in range(n_streaming)
    ]
    # The regular pages follow the streaming ones in the stream, so they
    # are generated together; each page's xm is drawn as it starts.
    pages += _single_write_pages(
        rng,
        window,
        (float(np.exp(rng.uniform(*regular_log_xm)))
         for _ in range(n_written - n_streaming)),
        profile.pareto_alpha,
        profile.burst_spacing_ms,
    )
    writes: Dict[int, np.ndarray] = {
        page: times for page, times in enumerate(pages) if len(times)
    }
    trace = WriteTrace(
        duration_ms=window,
        writes=writes,
        total_pages=profile.n_pages,
        name=profile.name,
    )
    if key is not None:
        while len(_TRACE_CACHE) >= _TRACE_CACHE_LIMIT:
            _TRACE_CACHE.popitem(last=False)
        _TRACE_CACHE[key] = trace
        registry.gauge("traces.cache_size").set(len(_TRACE_CACHE))
    return trace
