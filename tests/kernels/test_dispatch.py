"""Backend resolution, env override, fallback and warm-up contracts."""

import pytest

from repro import kernels, obs
from repro.kernels import _compile

from .conftest import requires_numba


class TestResolution:
    def teardown_method(self):
        kernels.set_backend(None)

    def test_auto_resolves_to_python_or_numba(self):
        resolved = kernels.resolve_backend("auto")
        expected = "numba" if kernels.numba_available() else "python"
        assert resolved == expected

    def test_explicit_python_and_pyfunc_always_resolve(self):
        assert kernels.resolve_backend("python") == "python"
        assert kernels.resolve_backend("pyfunc") == "pyfunc"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernels backend"):
            kernels.resolve_backend("cuda")

    def test_numba_request_raises_when_unavailable(self):
        if kernels.numba_available():
            assert kernels.resolve_backend("numba") == "numba"
        else:
            with pytest.raises(RuntimeError, match="numba"):
                kernels.resolve_backend("numba")

    def test_env_override_feeds_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "pyfunc")
        assert kernels.set_backend(None) == "pyfunc"
        assert kernels.engaged()
        monkeypatch.delenv("REPRO_KERNELS")
        assert kernels.set_backend(None) in ("python", "numba")

    def test_set_backend_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "pyfunc")
        assert kernels.set_backend("python") == "python"
        assert not kernels.engaged()

    def test_python_backend_not_engaged(self):
        kernels.set_backend("python")
        assert not kernels.engaged()

    def test_jit_disabled_env_parsing(self, monkeypatch):
        monkeypatch.delenv("NUMBA_DISABLE_JIT", raising=False)
        assert not _compile._jit_disabled()
        monkeypatch.setenv("NUMBA_DISABLE_JIT", "1")
        assert _compile._jit_disabled()
        monkeypatch.setenv("NUMBA_DISABLE_JIT", "0")
        assert not _compile._jit_disabled()

    @requires_numba
    def test_disable_jit_downgrades_auto(self, monkeypatch):
        monkeypatch.setenv("NUMBA_DISABLE_JIT", "1")
        assert kernels.resolve_backend("auto") == "python"


class TestMaybeNjit:
    def test_py_func_attribute_always_present(self):
        from repro.kernels.faultpred import _predicate_kernel

        assert callable(_predicate_kernel.py_func)

    def test_impl_unwraps_for_pyfunc(self):
        from repro.kernels.faultpred import _predicate_kernel

        kernels.set_backend("pyfunc")
        try:
            assert kernels.impl(_predicate_kernel) is (
                _predicate_kernel.py_func
            )
        finally:
            kernels.set_backend(None)


class TestWarmup:
    def teardown_method(self):
        kernels.set_backend(None)

    def test_warmup_noop_off_numba(self):
        kernels.set_backend("python")
        assert kernels.warmup() == 0.0
        kernels.set_backend("pyfunc")
        assert kernels.warmup() == 0.0

    @requires_numba
    def test_warmup_records_gauge_under_numba(self):
        registry = obs.MetricsRegistry(enabled=True)
        previous = obs.set_registry(registry)
        try:
            kernels.set_backend("numba")
            elapsed = kernels.warmup()
            assert elapsed >= 0.0
            assert kernels.warmup() == elapsed  # idempotent
            snapshot = registry.snapshot()
            assert kernels.WARMUP_GAUGE in snapshot["gauges"]
        finally:
            obs.set_registry(previous)

    def test_backend_info_shape(self):
        info = kernels.backend_info()
        assert set(info) == {
            "backend", "numba_available", "numba_version", "warmup_s"
        }
        assert info["backend"] in ("numba", "python", "pyfunc")


class TestStandaloneSchedulerUnaffected:
    def test_engaged_backend_without_attach_uses_python_path(self):
        # The scheduler has no kernel path: an engaged backend must not
        # change how it picks.
        from repro.mc.bank import BankState
        from repro.mc.request import Request, RequestKind
        from repro.mc.scheduler import FrFcfsScheduler

        kernels.set_backend("pyfunc")
        try:
            scheduler = FrFcfsScheduler()
            banks = [BankState() for _ in range(2)]
            scheduler.enqueue(Request(
                kind=RequestKind.READ, core=0, bank=1, row=7, arrival_ns=0.0
            ))
            picked = scheduler.next_request(banks, 10.0)
            assert picked is not None and picked.row == 7
        finally:
            kernels.set_backend(None)

