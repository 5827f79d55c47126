"""End-to-end and per-layer benchmark of the MEMCON reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-memcon-4core --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same workload untraced for a share of the time
and then under cProfile and spans, and reports the per-layer metrics
(see ``perfbench/README.md``). The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. A fuller
report, with the environment stamp and the spans, is written under
``.perfbench/`` in the checkout.

Seeds: 1 is the default seed, whose simulator results are checked
against ``perfbench/expected_digests.json``; 2 is the held-out seed,
checked by the invariants and table comparisons only.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DIGESTS = HERE / "expected_digests.json"
DEFAULT_SEED = 1
HELDOUT_SEED = 2
#: In-process set-up plus this many fresh-interpreter set-ups.
SETUP_CHILDREN = 2
#: Share of a traced run spent untraced, to measure the tracing cost.
UNTRACED_SHARE = 0.3

SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = [{src!r}, {root!r}]
from perfbench.run import setup_workload
workload = setup_workload({name!r}, {seed!r})
elapsed = time.perf_counter() - t0
workload.close()
print(elapsed)
"""


def setup_workload(name: str, seed: int):
    """Import the program, generate the inputs, start what the workload
    needs; everything before its first timed call."""
    from perfbench import workloads

    workload = workloads.make(name)
    workload.setup(seed)
    if seed == DEFAULT_SEED and hasattr(workload, "expected"):
        workload.expected = json.loads(DIGESTS.read_text())[name]
    return workload


def setup_in_child(name: str, seed: int) -> float:
    code = SETUP_CHILD.format(src=str(SRC), root=str(ROOT), name=name,
                              seed=seed)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def quantile(values, q: float) -> float:
    import numpy as np
    return float(np.quantile(np.asarray(values), q))


#: The tail quantile: the highest up to ``TAIL_MAX`` with ``TAIL_BEYOND``
#: samples beyond it. Beyond p90 the fleet latencies are interpreter-lock
#: stalls whose count follows the host's load, not the program: p99 of
#: fleet-stream read 8 ms and 19 ms for the same code and seed, and ten
#: samples beyond p96 moved fleet-compute's by a sixth between seeds.
TAIL_MAX = 0.90
TAIL_BEYOND = 25


def tail_q(n: int) -> float:
    """The tail quantile for ``n`` samples, never below the median."""
    return max(0.5, min(TAIL_MAX, 1.0 - TAIL_BEYOND / n))


def pin_to_one_cpu() -> None:
    """Run the whole benchmark, threads and set-up children, on one CPU.

    With ``jobs=1`` and the interpreter lock the program runs one thread
    at a time anyway; spread over two vCPUs, every hand-off between the
    client, server and dispatch threads crossed CPUs, which on a 2-vCPU
    VM cost about 2 ms and varied with the host's load (fleet-stream's
    ingest p50 read 3.1 ms unpinned and 1.0 ms pinned).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def environment() -> dict:
    import numpy as np
    from repro import kernels
    return {
        "nproc": os.cpu_count(),
        "cpus_used": (sorted(os.sched_getaffinity(0))
                      if hasattr(os, "sched_getaffinity") else None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels": kernels.backend_info(),
    }


# ----------------------------------------------------------------------
def end_to_end(measure, setup_samples) -> dict:
    lat = measure.latencies_s
    q = tail_q(len(lat))
    return {
        "setup_s": (statistics.median(setup_samples), "s",
                    len(setup_samples)),
        "ops_per_s": (measure.rate(), "ops/s", len(measure.segments)),
        "latency_p50_ms": (quantile(lat, 0.5) * 1e3, "ms", len(lat)),
        "latency_tail_ms": (quantile(lat, q) * 1e3, "ms", len(lat)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB", 1),
    }, {"tail_quantile": q, "p99_ms": quantile(lat, 0.99) * 1e3}


class Tracer:
    """Spans, profiler and the hostsim patches of one traced phase."""

    def __init__(self) -> None:
        from perfbench.layers import SpanRecorder, ThreadProfiler
        self.spans = SpanRecorder()
        self.profiler = ThreadProfiler()
        self.rows = 0
        self.writes = 0
        self._undo = []

    def traced_call(self, name, request_id, fn, *args, **kwargs):
        """Span + main-thread profile around one simulator call."""
        return self.spans.call(name, request_id, self.profiler.profile,
                               fn, *args, **kwargs)[0]

    def span_call(self, name, request_id, fn, *args, **kwargs):
        return self.spans.call(name, request_id, fn, *args, **kwargs)[0]

    def patch_hostsim(self) -> None:
        """Spans around the hostsim entry points the service calls."""
        from repro.dram.faults import FaultMap
        from repro.fleet import hostsim

        spans = self.spans
        run_unit = hostsim.run_unit
        generate = hostsim.generate_trace
        memcon = hostsim.simulate_refresh_reduction
        screen = FaultMap.rows_can_ever_fail

        def traced_run_unit(unit, *args, **kwargs):
            return spans.call("fleet.host", unit.params["host"], run_unit,
                              unit, *args, **kwargs)[0]

        def traced_generate(*args, **kwargs):
            return spans.call("generate_trace", None, generate,
                              *args, **kwargs)[0]

        def traced_memcon(trace, *args, **kwargs):
            self.writes += trace.n_writes
            return spans.call("simulate_refresh_reduction", None, memcon,
                              trace, *args, **kwargs)[0]

        def traced_screen(fault_map, rows, *args, **kwargs):
            self.rows += len(rows)
            return spans.call("FaultMap.rows_can_ever_fail", None, screen,
                              fault_map, rows, *args, **kwargs)[0]

        hostsim.run_unit = traced_run_unit
        hostsim.generate_trace = traced_generate
        hostsim.simulate_refresh_reduction = traced_memcon
        FaultMap.rows_can_ever_fail = traced_screen
        self._undo = [(hostsim, "run_unit", run_unit),
                      (hostsim, "generate_trace", generate),
                      (hostsim, "simulate_refresh_reduction", memcon),
                      (FaultMap, "rows_can_ever_fail", screen)]

    def unpatch(self) -> None:
        for owner, attr, value in self._undo:
            setattr(owner, attr, value)
        self._undo = []


def per_layer(workload, tracer, untraced, traced, registry_snapshot,
              fleet_status) -> tuple:
    from perfbench.layers import LAYERS, OTHER, fold_layers

    folded = fold_layers(tracer.profiler.stats())
    total = folded["total_s"] or 1.0
    ops = traced.ops or 1
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (
            folded["self_s"].get(layer, 0.0) / total, "ratio")
        metrics[f"{layer}.calls_per_op"] = (
            folded["calls"].get(layer, 0) / ops, "calls/op")
    other = folded["self_s"].get(OTHER, 0.0) / total
    metrics["other.self_share"] = (other, "ratio")

    counters = registry_snapshot["counters"]
    requests = sum(counters.get(f"mc.{kind}_served", 0)
                   for kind in ("reads", "writes", "test_requests"))
    metrics["sim.requests"] = (requests, "count")
    metrics["sim.iterations_per_request"] = (
        counters.get("sim.loop_iterations", 0) / requests if requests else 0.0,
        "iter/req")
    lookups = (counters.get("traces.cache_hits", 0)
               + counters.get("traces.cache_misses", 0))
    metrics["traces.cache_hit_rate"] = (
        counters.get("traces.cache_hits", 0) / lookups if lookups else 0.0,
        "ratio")
    spans = tracer.spans.summary()
    screen_s = spans.get("FaultMap.rows_can_ever_fail", {}).get("total_s")
    memcon_s = spans.get("simulate_refresh_reduction", {}).get("total_s")
    metrics["dram.faults.rows_per_s"] = (
        tracer.rows / screen_s if screen_s else 0.0, "rows/s")
    metrics["dram.faults.rows_evicted"] = (
        counters.get("dram.rows_evicted", 0), "count")
    metrics["core.memcon.writes_per_s"] = (
        tracer.writes / memcon_s if memcon_s else 0.0, "writes/s")
    fill = peak = 0.0
    if fleet_status is not None:
        queue = fleet_status["queue"]
        batch_max = workload.service.scheduler.batch_max
        if queue["batches"]:
            fill = queue["units_executed"] / (queue["batches"] * batch_max)
        peak = workload.backlog_peak
    metrics["fleet.scheduler.batch_fill"] = (fill, "ratio")
    metrics["fleet.scheduler.backlog_peak"] = (peak, "count")
    metrics["attributed_share"] = (1.0 - other, "ratio")
    metrics["trace_overhead"] = (
        (traced.wall_s / ops) / (untraced.wall_s / (untraced.ops or 1))
        if untraced.wall_s else 0.0, "x")
    info = {"other_frames": folded["other_frames"], "spans": spans,
            "profiled_cpu_s": folded["total_s"]}
    return metrics, info


# ----------------------------------------------------------------------
def run(args) -> dict:
    from perfbench.workloads import Measure
    from repro import obs

    workload = setup_workload(args.workload, args.seed)
    setup_samples = [time.perf_counter() - T0]
    fleet = args.workload.startswith("fleet")
    tracer = None
    try:
        start = time.perf_counter()
        first = Measure()
        share = UNTRACED_SHARE if args.trace else 1.0
        workload.run_until(start + args.seconds * share, first)
        measures = [first]
        if args.trace:
            tracer = Tracer()
            if fleet:
                workload.check(first)
                workload.close()
                tracer.patch_hostsim()
                tracer.profiler.watch_new_threads()
                workload.setup(args.seed)  # a service whose threads we see
                workload.wrap = tracer.span_call
            else:
                obs.set_registry(obs.MetricsRegistry(enabled=True))
                workload.wrap = tracer.traced_call
            traced = Measure()
            measures.append(traced)
            try:
                workload.run_until(start + args.seconds, traced)
            finally:
                tracer.profiler.stop_watching()
                tracer.unpatch()
            snapshot = obs.get_registry().snapshot()
            status = workload.client.status() if fleet else None
        workload.check(measures[-1])
    finally:
        workload.close()  # joins the service threads before folding
    if args.trace:
        metrics, info = per_layer(workload, tracer, first, traced,
                                  snapshot, status)
        info["spans_file"] = write_spans(args, tracer.spans.spans)
    else:
        for _ in range(SETUP_CHILDREN):
            setup_samples.append(setup_in_child(args.workload, args.seed))
        metrics, info = end_to_end(first, setup_samples)
        info["setup_samples_s"] = setup_samples
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": environment(), "info": info,
        "attempted": sum(m.attempted for m in measures),
        "failed": sum(m.failed for m in measures),
        "errors": [e for m in measures for e in m.errors],
        "metrics": metrics,
    }


def stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def write_spans(args, spans) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{stem(args)}-spans.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for index, span in enumerate(spans):
            handle.write(json.dumps({"id": index, **span}) + "\n")
    return str(path.relative_to(ROOT))


def print_report(report: dict) -> None:
    env = report["env"]
    print(f"# {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    print(f"# env nproc={env['nproc']} cpus_used={env['cpus_used']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"kernels={env['kernels']['backend']}")
    for name, value in sorted(report["metrics"].items()):
        unit = value[1]
        samples = f"  (n={value[2]})" if len(value) > 2 else ""
        print(f"{name:40s} {value[0]:14.6g} {unit}{samples}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"{'error_rate':40s} {failed / attempted:14.6g} ratio  "
          f"({failed} failed of {attempted} attempted)")
    info = report["info"]
    if "tail_quantile" in info:
        print(f"# latency_tail_ms is quantile {info['tail_quantile']:.4f}; "
              f"p99 {info['p99_ms']:.4g} ms")
    if report["trace"]:
        share = report["metrics"]["attributed_share"][0]
        print(f"# attributed_share {share:.4f}")
        if share < 0.9:
            print("# top unattributed frames:")
            for frame in info["other_frames"]:
                print(f"#   {frame['self_s']:10.4f} s  {frame['frame']}")
    for error in report["errors"]:
        print(f"# FAILED: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="End-to-end (--trace 0) or per-layer (--trace 1) "
                    "benchmark of one workload.")
    parser.add_argument("--workload", required=True,
                        choices=["sim-memcon-4core", "sim-8core-4ch",
                                 "fleet-stream", "fleet-compute"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"held-out seed {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC}; run from the root of a "
              "repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    pin_to_one_cpu()
    try:
        report = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    print_report(report)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem(args)}.json").write_text(
        json.dumps(report, indent=2, default=str))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value[0], "unit": value[1]}
                    for name, value in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
