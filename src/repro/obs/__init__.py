"""`repro.obs` — observability for the MEMCON pipeline.

Four cooperating pieces, all near-zero-overhead until switched on:

* **metrics registry** (:mod:`.registry`) — counters, gauges and
  fixed-bucket histograms, snapshot/reset-able; instruments no-op while
  the owning registry is disabled (the default).
* **span timing** (:mod:`.spans`) — ``with span("fill"):`` builds a
  hierarchical wall-clock profile once a collector is installed.
* **event trace** (:mod:`.trace`) — schema-versioned JSONL records of
  test lifecycles, refresh transitions, PRIL decisions and controller
  activity, written to a pluggable sink.
* **run manifest** (:mod:`.manifest`) — per-invocation JSON capturing
  config, seed, git revision, timings and the final metric snapshot.
* **streaming analytics** (:mod:`.analytics`) — ``TeeSink`` fans the
  event stream out to the JSONL file and an ``AggregatingSink`` whose
  windowed rollups (HI/LO-REF population, test outcomes, PRIL hit
  rate, controller latency percentiles, energy) land in the manifest.
* **live status** (:mod:`.live`) — a throttled stderr status line
  (events/s, LO-REF rows, outstanding tests, ETA) over the aggregator,
  plus per-worker health rows when a telemetry bus is attached.
* **telemetry bus** (:mod:`.bus`) — a multiprocessing-queue heartbeat
  channel from pool workers to the parent's fleet-style worker table
  (current unit, RSS, stalled-worker detection via missed heartbeats).
* **sampled profiler** (:mod:`.profile`) — opt-in wall-clock sampling
  of the span stack (collapsed-stack / flamegraph output) and optional
  tracemalloc peak-heap attribution, recorded under the manifest's
  ``"profile"`` key.
* **dashboard** (:mod:`.dashboard`) — ``python -m repro.obs.dashboard
  MANIFEST [TRACE...]`` renders one self-contained static HTML file
  (inline SVG, no JS) with timeseries, flame view, worker timeline and
  BENCH trajectories.
* **regression gate** (:mod:`.compare`) — ``python -m repro.obs.compare
  OLD NEW`` diffs two manifests or ``BENCH_*.json`` files under
  per-metric noise thresholds and exits non-zero on regression.
* **failure forensics** (:mod:`.forensics`, :mod:`.why`) — opt-in
  (``--forensics``) decision-provenance ledger of every causal decision
  touching a row (PRIL grants/revocations, MEMCON tests, TRR refreshes,
  dose crossings, predicate evaluations); ``python -m repro.obs.why
  --row R`` prints a row's causal chain plus a counterfactual replay
  verdict (content-dependent / disturb-driven / composed / memcon-miss).

``python -m repro.obs.report TRACE [--manifest FILE] [--timeseries]``
renders a trace, manifest and rollups into human-readable tables.
"""

from .analytics import (
    AggregatingSink,
    TeeSink,
    aggregate_trace,
)
from .bus import (
    BusPublisher,
    TelemetryBus,
    WorkerTable,
)
from .compare import (
    ComparisonResult,
    MetricDelta,
    compare_files,
    compare_metrics,
)
from .forensics import (
    FORENSIC_KINDS,
    LEDGER_KINDS,
    VERDICTS,
    classify_verdict,
    extract_ledger,
    forensics_active,
    ledger_census,
    set_forensics,
)
from .live import LiveReporter
from .manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    git_revision,
    load_manifest,
)
from .profile import SampledProfiler
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
    snapshot_delta,
)
from .spans import (
    SpanCollector,
    SpanNode,
    collect_spans,
    get_collector,
    set_collector,
    span,
    timed,
)
from .trace import (
    EVENT_KINDS,
    SCHEMA_VERSION,
    JsonlTraceSink,
    ListTraceSink,
    TraceSchemaError,
    emit,
    get_sink,
    read_trace,
    set_sink,
    trace_active,
    validate_record,
)

__all__ = [
    "AggregatingSink",
    "TeeSink",
    "aggregate_trace",
    "BusPublisher",
    "TelemetryBus",
    "WorkerTable",
    "SampledProfiler",
    "ComparisonResult",
    "MetricDelta",
    "compare_files",
    "compare_metrics",
    "FORENSIC_KINDS",
    "LEDGER_KINDS",
    "VERDICTS",
    "classify_verdict",
    "extract_ledger",
    "forensics_active",
    "ledger_census",
    "set_forensics",
    "LiveReporter",
    "MANIFEST_SCHEMA_VERSION",
    "RunManifest",
    "git_revision",
    "load_manifest",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "snapshot_delta",
    "SpanCollector",
    "SpanNode",
    "collect_spans",
    "get_collector",
    "set_collector",
    "span",
    "timed",
    "EVENT_KINDS",
    "SCHEMA_VERSION",
    "JsonlTraceSink",
    "ListTraceSink",
    "TraceSchemaError",
    "emit",
    "get_sink",
    "read_trace",
    "set_sink",
    "trace_active",
    "validate_record",
]
