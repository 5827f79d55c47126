"""Replay the perf benchmark's first simulator calls against its digests.

``perfbench/expected_digests.json`` pins the ``SystemResult`` of every
early seed-1 call of the two ``sim-*`` workloads. Replaying the first 16
of each through ``simulate_workload`` (memo included: fig15's pattern
repeats its baseline call) keeps the fused engine bit-identical to the
results the benchmark checks. The test only reads the digest file.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.sim import result_digest  # noqa: E402
from perfbench.workloads import make  # noqa: E402
from repro.sim import system  # noqa: E402

CALLS = 16


@pytest.mark.parametrize("workload", ["sim-memcon-4core", "sim-8core-4ch"])
def test_first_calls_match_expected_digests(workload):
    expected = json.loads(
        (ROOT / "perfbench" / "expected_digests.json").read_text())
    assert expected["seed"] == 1
    subject = make(workload)
    subject.setup(1)
    system._workload_memo.clear()
    try:
        got = [result_digest(system.simulate_workload(**kwargs))
               for kwargs in subject.calls[:CALLS]]
    finally:
        system._workload_memo.clear()
    assert got == expected[workload][:CALLS]
