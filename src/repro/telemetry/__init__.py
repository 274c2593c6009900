"""Unified telemetry: structured metrics registry + event tracing.

Every paper metric (Figures 6-9: uop expansion, capability/alias cache
miss rates, predictor coverage, squash time, violations) is exported
through one :class:`~repro.telemetry.registry.MetricsRegistry` per core,
and the interesting discrete events (uop injections, capability
generation/check/free, predictor outcomes, squashes, violations) stream
into a bounded :class:`~repro.telemetry.tracer.EventTracer` ring buffer
with JSONL and Chrome ``trace_event`` export.

Design constraints (see docs/observability.md):

* **The fast path stays fast.**  Hot counters remain plain ``int``
  attributes on the existing per-subsystem stats dataclasses; the
  registry is *pull-based* — it reads them only when a snapshot is
  taken (end of run, quantum boundary, or export), so the simulation
  hot loop pays nothing for the registry's existence.
* **Tracing is off by default.**  A machine with nothing in its one
  observer slot pays one attribute-is-None test per event site; an
  attached tracer appends fixed-size tuples into a preallocated ring,
  and superblock replay keeps running with the hooks compiled in.
* **Additive only.**  ``stats_summary()`` and every ``results/*.txt``
  artifact render byte-identically to the pre-telemetry output; the
  registry is the source the renderings read from, not a new format.
"""

from .collate import collate, validate_chrome_trace
from .diffs import MetricsDiff, diff_snapshots, load_metrics
from .registry import (
    METRICS_SCHEMA,
    Counter,
    Histogram,
    MetricsRegistry,
    write_snapshot,
)
from .provenance import PROVENANCE_SCHEMA, ProvenanceRecorder
from .spans import SPAN_SCHEMA, SpanTracer, TraceOptions
from .tracer import EVENT_KINDS, EventTracer, TraceEvent

__all__ = [
    "METRICS_SCHEMA",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "write_snapshot",
    "EVENT_KINDS",
    "EventTracer",
    "TraceEvent",
    "PROVENANCE_SCHEMA",
    "ProvenanceRecorder",
    "SPAN_SCHEMA",
    "SpanTracer",
    "TraceOptions",
    "collate",
    "validate_chrome_trace",
    "MetricsDiff",
    "diff_snapshots",
    "load_metrics",
]
