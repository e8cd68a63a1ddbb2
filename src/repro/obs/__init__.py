"""Observability substrate: logging, spans, metrics, telemetry, reports.

The pieces compose into one instrumentation story for the flow:

* :mod:`repro.obs.logging` — a ``repro.*`` logger hierarchy with a single
  :func:`configure_logging` entry point (human or JSON lines);
* :mod:`repro.obs.trace` — nestable :func:`span` timing contexts producing
  a per-run trace tree with call counts and monotonic start offsets;
* :mod:`repro.obs.metrics` — counters/gauges/histograms keyed by name
  and label set: the process-local registry the solvers publish their
  branch-cut / augmenting-path / expansion counts to, and the job
  service's own labelled registry;
* :mod:`repro.obs.progress` — throttled :class:`Progress` heartbeats the
  long-running searches feed, plus run-scoped :func:`telemetry` state
  (incumbent trajectory, per-worker shard balance);
* :mod:`repro.obs.trace_export` — Chrome trace-event rendering of the
  span tree (:func:`write_trace`, the CLI's ``--trace-out``);
* :mod:`repro.obs.report` — a versioned JSON run-report document bundling
  results + span tree + metric snapshot + telemetry + quality (schema v3);
* :mod:`repro.obs.analytics` — derived search-quality analytics over
  reports (optimality gap, pruning funnel, anytime AUC, shard imbalance,
  span hotspots);
* :mod:`repro.obs.dashboard` — a self-contained HTML run dashboard
  (:func:`render_dashboard`, the CLI's ``repro dashboard`` /
  ``--dashboard-out``);
* :mod:`repro.obs.openmetrics` — OpenMetrics/Prometheus text exposition
  of the metrics registry and the analytics gauges
  (:func:`render_registry`, the CLI's ``repro metrics-dump`` and the
  job service's live ``/api/v1/metrics`` scrape);
* :mod:`repro.obs.profiler` — a pure-stdlib wall-clock sampling profiler
  (:class:`SamplingProfiler`; collapsed-stack text or speedscope JSON,
  the CLI's ``--profile-out`` / ``REPRO_PROFILE``);
* :mod:`repro.obs.resources` — ``/proc``-based per-process CPU/RSS
  sampling (:class:`ResourceSampler`, :func:`self_resources`); a
  graceful no-op off Linux.

:func:`reset_run` clears the trace tree, metric registry and telemetry
scope; the flow entry points call it so every run's report is
self-contained, and every spawned worker process must call it at entry
(see the threading/spawn contract in :mod:`repro.obs.metrics`).
"""

from .analytics import (
    analyze_report,
    anytime_metrics,
    hotspot_table,
    optimality_gap,
    profile_hotspots,
    pruning_funnel,
    quality_section,
    report_quality,
    shard_imbalance,
)
from .dashboard import render_dashboard, write_dashboard
from .logging import configure_logging, get_logger, json_default
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    export_metrics,
    gauge,
    histogram,
    merge_metrics,
    registry,
    reset_metrics,
    snapshot,
)
from .progress import (
    Progress,
    Telemetry,
    add_event_listener,
    record_incumbent,
    remove_event_listener,
    reset_telemetry,
    telemetry,
)
from .metrics import DEFAULT_BUCKET_LE
from .openmetrics import (
    ExpositionBuilder,
    parse_exposition,
    render_registry,
    render_report,
)
from .profiler import (
    SamplingProfiler,
    format_for_path,
    profile_format,
)
from .resources import (
    ResourceSampler,
    read_proc,
    sample_interval_s,
    self_resources,
)
from .report import (
    REPORT_KIND,
    REPORT_SCHEMA_VERSION,
    attach_verification,
    build_report,
    find_span,
    layout_section,
    report_to_json,
    span_seconds,
    write_report,
)
from .trace import (
    Span,
    Tracer,
    current_span,
    graft_spans,
    reset_trace,
    span,
    trace_snapshot,
    tracer,
)
from .trace_export import build_trace, trace_events, write_trace


def reset_run() -> None:
    """Start a fresh observability scope: spans, metrics, telemetry."""
    reset_trace()
    reset_metrics()
    reset_telemetry()


__all__ = [
    "Counter",
    "DEFAULT_BUCKET_LE",
    "ExpositionBuilder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Progress",
    "REPORT_KIND",
    "REPORT_SCHEMA_VERSION",
    "ResourceSampler",
    "SamplingProfiler",
    "Span",
    "Telemetry",
    "Tracer",
    "add_event_listener",
    "analyze_report",
    "anytime_metrics",
    "attach_verification",
    "build_report",
    "build_trace",
    "configure_logging",
    "counter",
    "current_span",
    "export_metrics",
    "find_span",
    "format_for_path",
    "gauge",
    "get_logger",
    "graft_spans",
    "histogram",
    "hotspot_table",
    "json_default",
    "layout_section",
    "merge_metrics",
    "optimality_gap",
    "parse_exposition",
    "profile_format",
    "profile_hotspots",
    "pruning_funnel",
    "quality_section",
    "read_proc",
    "record_incumbent",
    "remove_event_listener",
    "registry",
    "sample_interval_s",
    "self_resources",
    "render_dashboard",
    "render_registry",
    "render_report",
    "report_quality",
    "report_to_json",
    "shard_imbalance",
    "reset_metrics",
    "reset_run",
    "reset_telemetry",
    "reset_trace",
    "snapshot",
    "span",
    "span_seconds",
    "telemetry",
    "trace_events",
    "trace_snapshot",
    "tracer",
    "write_dashboard",
    "write_report",
    "write_trace",
]
