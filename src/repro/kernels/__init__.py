"""Compiled hot-kernel backend for the fault engine.

The per-cell fault predicate dominates every fleet host screen and
hammer sweep. This package holds njit-compiled ports of that loop; the
numpy implementations stay in place, verbatim, as the equivalence
oracles the kernels are property-tested against. (The cycle simulator
has no kernel path: its per-request work is one fused python loop per
channel, ``MemoryController.drain``.)

Backends
--------

``auto``
    Use numba when it is importable and JIT is not disabled
    (``NUMBA_DISABLE_JIT``); silently fall back to ``python`` otherwise.
    The default everywhere.
``numba``
    Require the compiled kernels; raises when numba is unusable.
``python``
    The tuned numpy/pure-python paths, untouched. The reference.
``pyfunc``
    Run the *kernel* code paths through the interpreter (each kernel's
    ``py_func``). Slow, but it exercises the exact kernel logic and
    array plumbing, so cross-backend equivalence suites are meaningful
    on machines without numba — CI's no-numba leg and this repo's
    development environment both rely on it.

Selection is process-global: the ``REPRO_KERNELS`` environment variable
(inherited by parallel workers, so sharded runs resolve the same
backend) or :func:`set_backend`. A backend is *engaged* when kernel
code paths — compiled or interpreted — replace the numpy oracles.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, Optional

from ._compile import maybe_njit, numba_available, numba_version

__all__ = [
    "BACKENDS",
    "backend_info",
    "engaged",
    "get_backend",
    "impl",
    "maybe_njit",
    "numba_available",
    "numba_version",
    "resolve_backend",
    "set_backend",
    "warmup",
]

BACKENDS = ("auto", "numba", "python", "pyfunc")

#: Metric name for the one-time JIT warm-up wall time.
WARMUP_GAUGE = "kernels.warmup_s"

_requested: Optional[str] = None  # set_backend override (beats the env)
_resolved: Optional[str] = None   # cache of the resolved backend
_warmup_s: Optional[float] = None


def resolve_backend(requested: Optional[str] = None) -> str:
    """Resolve a backend request to ``numba`` | ``python`` | ``pyfunc``.

    ``requested`` falls back to ``$REPRO_KERNELS``, then ``auto``.
    ``auto`` never raises; ``numba`` raises when numba is unusable so a
    run that *asked* for compiled kernels cannot silently measure the
    interpreter.
    """
    req = requested
    if req is None:
        req = os.environ.get("REPRO_KERNELS", "").strip().lower() or "auto"
    if req not in BACKENDS:
        raise ValueError(
            f"unknown kernels backend {req!r}; expected one of {BACKENDS}"
        )
    if req == "auto":
        return "numba" if numba_available() else "python"
    if req == "numba" and not numba_available():
        raise RuntimeError(
            "kernels backend 'numba' requested but numba is not usable "
            "(not installed, or NUMBA_DISABLE_JIT is set); install the "
            "repro[kernels] extra or use backend 'auto'/'python'"
        )
    return req


def get_backend() -> str:
    """The process's resolved backend (cached; see :func:`set_backend`)."""
    global _resolved
    if _resolved is None:
        _resolved = resolve_backend(_requested)
    return _resolved


def set_backend(name: Optional[str]) -> str:
    """Select the process backend; returns the resolved name.

    ``None`` clears any prior override and re-resolves from the
    environment. Resetting also clears the warm-up record: a new
    backend has not been warmed.
    """
    global _requested, _resolved, _warmup_s
    _requested = name
    _resolved = None
    _warmup_s = None
    return get_backend()


def engaged() -> bool:
    """Whether kernel code paths replace the numpy/python oracles."""
    return get_backend() in ("numba", "pyfunc")


def impl(kernel: Callable) -> Callable:
    """The callable to run for ``kernel`` under the current backend.

    ``pyfunc`` unwraps to the interpreted kernel; anything else runs the
    object produced by :func:`maybe_njit` (a numba dispatcher when
    compiled, the plain function otherwise).
    """
    if get_backend() == "pyfunc":
        return kernel.py_func  # type: ignore[attr-defined]
    return kernel


def warmup() -> float:
    """Compile every kernel once, off the timed path; returns seconds.

    Safe to call under any backend: a no-op (0.0 s) unless the numba
    backend is engaged. The wall time is recorded on the
    ``kernels.warmup_s`` gauge so manifests and ``obs.compare`` see JIT
    cost as its own metric, never folded into a benchmark window.
    Idempotent per backend selection — repeat calls return the first
    measurement.
    """
    global _warmup_s
    if _warmup_s is not None:
        return _warmup_s
    if get_backend() != "numba":
        _warmup_s = 0.0
        return _warmup_s
    from . import faultpred

    start = time.perf_counter()
    faultpred.warmup()
    _warmup_s = time.perf_counter() - start
    from .. import obs

    obs.get_registry().gauge(WARMUP_GAUGE).set(_warmup_s)
    return _warmup_s


def backend_info() -> Dict[str, object]:
    """JSON-safe description of the backend for run manifests."""
    return {
        "backend": get_backend(),
        "numba_available": numba_available(),
        "numba_version": numba_version(),
        "warmup_s": _warmup_s,
    }
