"""Golden pins for the synthetic trace generator.

Every figure, the fleet's generated hosts and the HMTT test harness read
traces from :func:`generate_trace`; a change to the generator's RNG draw
order or float rounding would silently move all of them. These digests
were recorded on the episode loop that used one ``cumsum`` per burst
and pin the generator bit for bit: each digest covers every written
page's id, write count and raw float64 timestamps. That loop is kept
below as ``reference_page_writes`` and raced against the generator over
random parameters.

The digests hold for numpy's float math on x86-64 with AVX-512 (numpy
2.4). Where numpy rounds ``power`` differently, the pins skip (see
``recorded_float_math`` in ``tests/conftest.py``); the race against the
reference loop runs everywhere.

Regenerate (only when a change is *meant* to alter traces) with::

    PYTHONPATH=src python tests/traces/test_generator_golden.py
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.traces import generator
from repro.traces.generator import (
    clear_trace_cache,
    generate_page_writes,
    generate_trace,
    set_trace_cache_limit,
)
from repro.traces.workloads import WORKLOADS

SEEDS = (0, 1, 7)
#: ``None`` is the profile's own window (up to two minutes).
WINDOWS = (5000.0, None)


def trace_digest(trace) -> str:
    """SHA-256 over (page, count, timestamps) of every page, in page order."""
    h = hashlib.sha256()
    h.update(np.float64(trace.duration_ms).tobytes())
    h.update(np.int64(trace.total_pages).tobytes())
    for page in sorted(trace.writes):
        times = np.ascontiguousarray(trace.writes[page], dtype="<f8")
        h.update(np.array([page, len(times)], dtype="<i8").tobytes())
        h.update(times.tobytes())
    return h.hexdigest()


def times_digest(times: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(times, dtype="<f8").tobytes()
    ).hexdigest()


#: Direct ``generate_page_writes`` cases: (rng seed, kwargs).
PAGE_CASES = {
    "streaming": (11, dict(duration_ms=5000.0, xm_ms=7.5, pareto_alpha=0.66,
                           burst_extra_mean=25.0, burst_spacing_ms=0.08)),
    "start_ms": (12, dict(duration_ms=5000.0, xm_ms=20.0, pareto_alpha=0.7,
                          burst_extra_mean=30.0, burst_spacing_ms=0.08,
                          start_ms=1234.5)),
    "start_past_window": (13, dict(duration_ms=100.0, xm_ms=5.0,
                                   pareto_alpha=0.7, burst_extra_mean=3.0,
                                   burst_spacing_ms=0.1, start_ms=100.0)),
    "no_extra": (14, dict(duration_ms=60_000.0, xm_ms=600.0,
                          pareto_alpha=0.72, burst_extra_mean=0.0,
                          burst_spacing_ms=0.08)),
    "no_extra_start_ms": (15, dict(duration_ms=60_000.0, xm_ms=40.0,
                                   pareto_alpha=0.6, burst_extra_mean=0.0,
                                   burst_spacing_ms=0.5, start_ms=0.0)),
    # Long bursts of wide spacing in a short window: the last burst is
    # cut at the window end.
    "burst_cut": (16, dict(duration_ms=50.0, xm_ms=2.0, pareto_alpha=0.7,
                           burst_extra_mean=200.0, burst_spacing_ms=0.5)),
    "burst_cut_from_start": (17, dict(duration_ms=10.0, xm_ms=2.0,
                                      pareto_alpha=0.9,
                                      burst_extra_mean=400.0,
                                      burst_spacing_ms=0.2, start_ms=3.0)),
    "alpha_one": (18, dict(duration_ms=20_000.0, xm_ms=3.0,
                           pareto_alpha=1.0, burst_extra_mean=5.0,
                           burst_spacing_ms=0.05)),
}


def page_case(name: str) -> np.ndarray:
    seed, kwargs = PAGE_CASES[name]
    rng = np.random.default_rng(seed)
    times = generate_page_writes(rng, **kwargs)
    # The stream position after the call pins the draw count too.
    return np.append(times, rng.random())


#: (workload, seed, window) -> sha256.
TRACE_GOLDEN = {
    ('ACBrotherHood', 0, 5000.0):
        '00f38942841c352221f460404cbb2116b5452ca1b7425fc55a94d804f7e3f494',
    ('ACBrotherHood', 0, None):
        'f82f40e28c5d4f7b788673ca734e1d35802d398840b4f0b8fae41dc4751c3998',
    ('ACBrotherHood', 1, 5000.0):
        '66c4f4c1b8634bf4d50f8446eaa65dddfc43fecd79bc3d1bae43ed4ac80ea351',
    ('ACBrotherHood', 1, None):
        'd409c4672d8e873ba58c982f9342cdc63e1249719ff607cacce567bff17f2647',
    ('ACBrotherHood', 7, 5000.0):
        '11e4affb4e7da15d9f96c9cd6a9e04332cf2b30dda7c002dbd776f7cf9e555f1',
    ('ACBrotherHood', 7, None):
        '701e7ded1c44056c100407383f71875dc57d6e26d59d1a22b7a50deb9e7cdcb6',
    ('AVCHD', 0, 5000.0):
        '44942d7ed5d85532fe1000ee8b2e2e551a8cbf3a90fb34577760244245f5ca5e',
    ('AVCHD', 0, None):
        '6c8854e5c10b16927c788b177359a8cb7122b0dfcd21630d6e81f1892ab9a18f',
    ('AVCHD', 1, 5000.0):
        '8acd8683b42b0044a3caac35380074698c0298be5686a6699e1d6cefc766a4e5',
    ('AVCHD', 1, None):
        '44aef7e8f0bc5a4f0b2350a4fd188b7e2dd57145bcdb1a20d5b1c3ea7e8f89b6',
    ('AVCHD', 7, 5000.0):
        '5634734a7cd10381dd935845293dca2358ddb8bcceac8cfe864ee4f55f633f17',
    ('AVCHD', 7, None):
        'e3d7ade3caa379fa7e5607b84235a2659bf4f51c7f1f80c5382f66d5d530af4a',
    ('AdobePhotoshop', 0, 5000.0):
        'ac24a34d9da33a237762af3626f270afc07c3f65d76c716085b15ef159fff631',
    ('AdobePhotoshop', 0, None):
        '4e6bc993eb40b45550290cd1a9a879e250836bceb336fec3d90144dbb443424b',
    ('AdobePhotoshop', 1, 5000.0):
        'ed8de4ab7d9223e567804da2f5015f1207e64e4508612d8f833b1b9da5d0cb40',
    ('AdobePhotoshop', 1, None):
        'ac423161928e66232d4478aa5af7dc9394a17c11e19682813738c6c2045e0488',
    ('AdobePhotoshop', 7, 5000.0):
        '237a7ba0167aa2f80c31451c03d4fc3faba94bbda40628ebd990849ae545b365',
    ('AdobePhotoshop', 7, None):
        '9e992ed00726a9f5297b0ec5d6cc444f95ed0c72634755965e2bf89fb8298641',
    ('AdobePremiere', 0, 5000.0):
        '0ef26c8dfa059bbeb7676f113c57a50cd63c658cc82246d3cef7f69b8cf2ae02',
    ('AdobePremiere', 0, None):
        '64fd16e0bcb5d5252b0ae1c0568c0b59a8ca5d5e5ed409bf3576cde4a2d8d987',
    ('AdobePremiere', 1, 5000.0):
        'c479695a786c27e7b2e0f8ad202ba692128b3c744048d36ef302052b3aa278c7',
    ('AdobePremiere', 1, None):
        '9372c9edc8b974bccd75065a073709395d72fc03596692d5c395f94b1957a1b2',
    ('AdobePremiere', 7, 5000.0):
        'b7c7562ef5ae2c1394c89f910aa1eaec30e026af1898f4ca47bb8e1104f1a0e1',
    ('AdobePremiere', 7, None):
        'd5870bd7554d5bbd811bafb1dc8613a1b016608cdf0dad6d6c64eda0a84bce5c',
    ('AllSysMark', 0, 5000.0):
        'e84f82b991f6b5143964b25916d348edb662a31da5c9e64f469a43f5bb559787',
    ('AllSysMark', 0, None):
        '28701f79dd47b97bda7bd940cfc8e40f258aa48ec1a3a939cfc64c281928dce3',
    ('AllSysMark', 1, 5000.0):
        'f658c44a949a753fcb3e0610f8b01b02f4b8e10ed6da5de53a207ca1bb20348b',
    ('AllSysMark', 1, None):
        '6af651f1c30816d6439e03174a99b6df11b0941ab8b182f96f2fadea05836845',
    ('AllSysMark', 7, 5000.0):
        'cac50aa622c18f49fb6db5f701f2e95765ae1225c598d56dbd912ee79b7c84a0',
    ('AllSysMark', 7, None):
        '763c9dddee83156433b12588f9579030ca56ad56dfaad6890c4e257325406f91',
    ('BlurMotion', 0, 5000.0):
        '0d8f58f3f6d941ebeae28d5ef35cade791a2c546f6de6d531ca64f9476bc5b6f',
    ('BlurMotion', 0, None):
        '9c08e6bcbc579f023a31068ddecb23d43b4959f2664f1e7b0a16e0416138f386',
    ('BlurMotion', 1, 5000.0):
        'aa0e0ac909683ff20d0f96be1e3e2e4825a0c10942812c8365ff9682d3209f77',
    ('BlurMotion', 1, None):
        '2ece4b3d1e1807533a3cde5f23e3e315fb2fad2ad2ee2c5b35c48d916942ecaf',
    ('BlurMotion', 7, 5000.0):
        '761ca50164529c58e893ee31f958c96467f6a5020a528cb3ec5115f94a126147',
    ('BlurMotion', 7, None):
        '5e0957dadbceb145f5dae830043c199faf1088d459792ecd3d3af30062b35a35',
    ('FinalCutPro', 0, 5000.0):
        '7fdba3e5340ccee936bb1f66900f5e93bb0995f5fe445402b8e3f3929406965b',
    ('FinalCutPro', 0, None):
        '91e1cc14befa67e330969c2c4957dbc1c4b8b5a22552c7b401dc6a40fb8c9a1c',
    ('FinalCutPro', 1, 5000.0):
        'f1ad5937121d3900020e0dc7926e9da10dc30f8ca6a160cfa8bbb57f03b92d26',
    ('FinalCutPro', 1, None):
        '5391fc3498e8d8aabea5323d36f8bea1a7c61a64266bbd96fdbc0559941d1ee6',
    ('FinalCutPro', 7, 5000.0):
        'fc3b22718b4b143b144006d2869699ce799306090940e1037afaac0f5de860c8',
    ('FinalCutPro', 7, None):
        '76bdc5156030f0077b2c468cd050c8643c1198481a8834866747347115f752b0',
    ('FinalMaster', 0, 5000.0):
        'b1a62043f250401093127e30a1f61009c16d89004c77ce6e2965da69e615294a',
    ('FinalMaster', 0, None):
        'd70431a26cc55895456d75bf817765db046f70f49361b228f5fc6dbc2837bc76',
    ('FinalMaster', 1, 5000.0):
        'b163a89288f0266f471b2f611b70175a5efe597a00cb706de54f7ff450b0ce8e',
    ('FinalMaster', 1, None):
        'c0ff66713ae7096beedfe1abd8f7ae108a9b6791e3b638027815898a7742182b',
    ('FinalMaster', 7, 5000.0):
        'e995da55c8f3842c9cf07a217cf62b2e312512db3ceaf37ebed7cb221a417c42',
    ('FinalMaster', 7, None):
        '7420c8c524b05e1f088300c209ac000ef09ad8b0f3365a5d6e84c4645004af47',
    ('MotionPlayBack', 0, 5000.0):
        'df2b4e29f89ea706ed55c3c02564313a7dd15339402a839f02965691bffb5b26',
    ('MotionPlayBack', 0, None):
        '87266806cfd106e70cc7685b540ff9f10f7885a300141bfd6276cf711c5f5997',
    ('MotionPlayBack', 1, 5000.0):
        '7981d2e718565ad1150d81688245e655df2bd8125c13d24c9ad32d4903b605aa',
    ('MotionPlayBack', 1, None):
        '50f78087083edc63559e035391b9f535558dd8343b77c228b2881807145e67ae',
    ('MotionPlayBack', 7, 5000.0):
        '03a40fa0bbc4f55891586553aec4b2835ac604d842cabefcd7aefcb8fed00bb1',
    ('MotionPlayBack', 7, None):
        'c7deaf6cec0da7e17a6bbd2fedd48055c70f82ce0e6410703335cb07813ac663',
    ('Netflix', 0, 5000.0):
        '46a08bcc1c5dd681088ddc44e86f4c2ae7cdeed0a83a85735fecd1ddd984cab2',
    ('Netflix', 0, None):
        '6237856a04476397e7a84a0f52d9e1184918bb31405a997d423e8f88f56dbe9d',
    ('Netflix', 1, 5000.0):
        '5b9a81179f55e5c5e29c7047271d85cb375c6dda1b679890a01af6e3a4e595c7',
    ('Netflix', 1, None):
        '452f93004f8ea786abbbd7633d1c72416833a6074ec6205b52b6ae75fc5557e6',
    ('Netflix', 7, 5000.0):
        'cbdf7a6461cfa397e3edaa7edd8045ce683fb6419f90fca2f55782f5b1eda74f',
    ('Netflix', 7, None):
        '8e19986fbfcbb193fb6879f1db254466e116f767cd9d83a5a8dfc7ed037e19f9',
    ('SystemMgt', 0, 5000.0):
        '06d1618281685ed9db0fe9b422e02c2b261e27dcac4c33d20cc7bdceab025840',
    ('SystemMgt', 0, None):
        '97ecc24c2b3aa0cd93134a3b919a018c9acdd4856c05171be613b4e8c77c9d9f',
    ('SystemMgt', 1, 5000.0):
        '40a9e47084b21cc6438ed1a8760af0e024b6c64680edad5390902dc56dee220e',
    ('SystemMgt', 1, None):
        '338ebb21dceec9e539ddb78a13618a6e964ee2aca23660912e8da2597b4828b0',
    ('SystemMgt', 7, 5000.0):
        'b1559a5d81aca13dcf5b57ae2fda82a7199b4f2fb64989e0ef0f28609b45804d',
    ('SystemMgt', 7, None):
        '64325cd3e0e9b2a8bed9b510f6a8e8ea6f763c80290eccecfaedd088cecaf83b',
    ('VideoEncode', 0, 5000.0):
        '621fa12af4a9f789e93c43e76f780ede6e79697aa863413b4c154c76be8761f9',
    ('VideoEncode', 0, None):
        'cc23e41ad7abea6162e14cd44cf82f5862e5b0320c545ce7c3fbab0e17a84b51',
    ('VideoEncode', 1, 5000.0):
        '25d97d65baa194833f300640814944a87876ec5a433ca1cb5a3d938f16fdc52f',
    ('VideoEncode', 1, None):
        '58d798085d6cfd7d691db8c7ab13ed059e054aad29071de500fc0c79460e4851',
    ('VideoEncode', 7, 5000.0):
        '6c2504d33faea3f392aaa7d86d1d83db3e970bc2c59bef1853a8d21efd29dac8',
    ('VideoEncode', 7, None):
        'b31affce2ffb4e2b580f24255fe9c3b1f85c9e7793293e45930cef7f1a9eb9a8',
}

#: case -> (len, sha256 of the timestamps plus the next uniform draw).
PAGE_GOLDEN = {
    'alpha_one': (4739,
        'd6af39e01653117a156da75935fbe7859f9f828335e9df0ff698487fa34bd4a2'),
    'burst_cut': (94,
        'a5421c2b344d015eae7c38ad3483683a534298b410568bbbb958943d7fc0d2f0'),
    'burst_cut_from_start': (43,
        'ada08687091286e6f43f6815c6ca4510c0e0394c74df5ae5ad3843d2ca6c5533'),
    'no_extra': (26,
        '490f38798ef037d8130c48ec6848e1122e8c454b062558239de912e163298ab4'),
    'no_extra_start_ms': (109,
        '59f1ace65d7c3b2a91714d79cebf2d949d46ddf3755256fb76907e32b35f176f'),
    'start_ms': (117,
        '7a3e6a7683e81992a1b5cd46c8766012eab02f1c88fdbcae87a4bda5cc60e37a'),
    'start_past_window': (1,
        '3362886d7585c5973e6369e5b62da11d50f8358f99edb157a9e5b73c30538988'),
    'streaming': (927,
        '48782bffe6d36d0784e4cd12eb9aba58c48421a98fbdb7ac1da7a6e6572d5e0d'),
}


@pytest.fixture(scope="module", autouse=True)
def no_trace_cache():
    previous = set_trace_cache_limit(0)
    yield
    set_trace_cache_limit(previous)
    clear_trace_cache()


@pytest.mark.usefixtures("recorded_float_math")
@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("window", WINDOWS, ids=["5s", "profile"])
def test_trace_digest_pinned(name, seed, window):
    trace = generate_trace(WORKLOADS[name], seed=seed, duration_ms=window)
    key = (name, seed, window)
    assert trace_digest(trace) == TRACE_GOLDEN[key]


@pytest.mark.usefixtures("recorded_float_math")
@pytest.mark.parametrize("case", sorted(PAGE_CASES))
def test_page_writes_pinned(case):
    out = page_case(case)
    assert (len(out), times_digest(out)) == PAGE_GOLDEN[case]


def test_burst_cut_cases_end_inside_a_burst():
    """The cut cases stop mid-burst: their last write follows an
    intra-burst spacing (inter-episode gaps are at least ``xm``) and
    the window ends before the burst's expected length has run."""
    for case in ("burst_cut", "burst_cut_from_start"):
        seed, kwargs = PAGE_CASES[case]
        times = generate_page_writes(np.random.default_rng(seed), **kwargs)
        window, xm = kwargs["duration_ms"], kwargs["xm_ms"]
        assert np.diff(times)[-1] < xm
        burst_ms = kwargs["burst_extra_mean"] * kwargs["burst_spacing_ms"]
        assert window - times[-1] < xm < burst_ms


def reference_page_writes(
    rng, duration_ms, xm_ms, pareto_alpha, burst_extra_mean,
    burst_spacing_ms, start_ms=None,
):
    """The episode loop the digests were recorded on: one ``cumsum`` per
    burst and a one-element array power per gap."""
    chunks = []
    t = rng.uniform(0.0, min(xm_ms, duration_ms)) if start_ms is None \
        else start_ms
    while t < duration_ms:
        burst_len = 1 + rng.poisson(burst_extra_mean) \
            if burst_extra_mean else 1
        acc = np.empty(burst_len + 1, dtype=np.float64)
        acc[0] = t
        acc[1:] = rng.exponential(burst_spacing_ms, size=burst_len)
        acc = acc.cumsum()
        emitted = int(np.searchsorted(acc[:burst_len], duration_ms, "left"))
        if emitted:
            chunks.append(acc[:emitted])
        t = acc[emitted] + float(
            (xm_ms * rng.random(1) ** (-1.0 / pareto_alpha))[0]
        )
    if not chunks:
        return np.asarray([], dtype=np.float64)
    return np.concatenate(chunks)


@given(
    seed=st.integers(0, 2**32 - 1),
    duration_ms=st.floats(0.5, 3000.0),
    xm_ms=st.floats(0.05, 500.0),
    pareto_alpha=st.floats(0.3, 2.5),
    burst_extra_mean=st.one_of(st.just(0.0), st.floats(0.1, 60.0)),
    burst_spacing_ms=st.floats(0.001, 2.0),
    start_ms=st.one_of(st.none(), st.floats(-10.0, 3000.0)),
)
@settings(max_examples=150, deadline=None)
def test_matches_reference_loop(seed, duration_ms, xm_ms, pareto_alpha,
                                burst_extra_mean, burst_spacing_ms,
                                start_ms):
    """Bit-identical timestamps and the same number of draws as the
    per-burst ``cumsum`` loop, over random parameters."""
    args = (duration_ms, xm_ms, pareto_alpha, burst_extra_mean,
            burst_spacing_ms, start_ms)
    rng_new, rng_ref = (np.random.default_rng(seed) for _ in range(2))
    got = generate_page_writes(rng_new, *args)
    want = reference_page_writes(rng_ref, *args)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, want)
    assert rng_new.random() == rng_ref.random()


@pytest.mark.usefixtures("recorded_float_math")
def test_decisions_settled_on_exact_clock(monkeypatch):
    """With a slack wider than the window every stop decision takes the
    exact clock; the pinned pages do not change."""
    monkeypatch.setattr(generator, "_CLOCK_SLACK", 10.0)
    for case in sorted(PAGE_CASES):
        out = page_case(case)
        assert (len(out), times_digest(out)) == PAGE_GOLDEN[case]
    trace = generate_trace(WORKLOADS["Netflix"], seed=7, duration_ms=5000.0)
    assert trace_digest(trace) == TRACE_GOLDEN[("Netflix", 7, 5000.0)]


class _ZeroUniformAt:
    """A generator whose ``n``-th uniform draw comes out as exactly 0."""

    def __init__(self, seed, n):
        self._rng = np.random.default_rng(seed)
        self._left = n
        self.uniform = self._rng.uniform
        self.poisson = self._rng.poisson
        self.exponential = self._rng.exponential

    def random(self, size=None):
        out = self._rng.random(size)
        self._left -= 1
        if self._left == 0:
            out = 0.0 if size is None else np.zeros_like(out)
        return out


@pytest.mark.parametrize("extra", [0.0, 12.0])
@pytest.mark.parametrize("nth", [1, 4])
def test_zero_uniform_gives_an_endless_gap(extra, nth):
    """A uniform of exactly 0 makes an infinite gap that ends the page,
    as the reference loop's array power does."""
    args = (5000.0, 3.0, 0.7, extra, 0.08)
    with np.errstate(divide="ignore"):
        got = generate_page_writes(_ZeroUniformAt(3, nth), *args)
        want = reference_page_writes(_ZeroUniformAt(3, nth), *args)
    np.testing.assert_array_equal(got, want)
    assert 0 < len(got) < 5000


def _record() -> None:  # pragma: no cover - regeneration helper
    set_trace_cache_limit(0)
    print("TRACE_GOLDEN = {")
    for name in sorted(WORKLOADS):
        for seed in SEEDS:
            for window in WINDOWS:
                trace = generate_trace(WORKLOADS[name], seed=seed,
                                       duration_ms=window)
                print(f"    ({name!r}, {seed}, {window!r}):\n"
                      f"        {trace_digest(trace)!r},")
    print("}\n\nPAGE_GOLDEN = {")
    for case in sorted(PAGE_CASES):
        out = page_case(case)
        print(f"    {case!r}: ({len(out)},\n"
              f"        {times_digest(out)!r}),")
    print("}")


if __name__ == "__main__":  # pragma: no cover
    _record()
