"""Regenerate ``expected_digests.json``: the ``SystemResult`` digests of
the first calls each simulator workload makes on the default seed.

Run from the root of a checkout (takes a few minutes)::

    python3 perfbench/make_digests.py

Only do so when a change is meant to alter simulator results; the
table is what ``run.py`` checks every default-seed call against.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import sim, workloads  # noqa: E402
from perfbench.run import DEFAULT_SEED, DIGESTS  # noqa: E402
from repro.sim.system import simulate_workload  # noqa: E402

#: Calls covered per workload: several times what one run makes today.
COVERED = {"sim-memcon-4core": 400, "sim-8core-4ch": 320}


def main() -> None:
    table = {"seed": DEFAULT_SEED}
    for name, count in COVERED.items():
        workload = workloads.make(name)
        workload.setup(DEFAULT_SEED)
        table[name] = [
            sim.result_digest(simulate_workload(**kwargs))
            for kwargs in workload.calls[:count]
        ]
        print(f"{name}: {count} digests", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
