"""Observability for the serving stack: tracing, metrics, exporters.

The serving simulator (and any future real scheduler) emits structured
query-lifecycle spans through a :class:`Tracer`; the default
:data:`NULL_TRACER` makes that free when disabled. A
:class:`RecordingTracer` turns a run into (1) a span stream exportable
as JSONL or a Chrome/Perfetto timeline, (2) a
:class:`MetricsRegistry` of counters, time-keyed gauges and streaming
histograms backed by mergeable :class:`QuantileDigest` sketches, and
(3) a plain-text run report. An :class:`SLOMonitor` watches the span
stream online (rolling-window burn rates, overload episodes), and an
opt-in :class:`DecisionLog` captures per-query scheduler decision
records. The live plane (:class:`LiveTelemetry`, attached via
``RecordingTracer(live=...)``) adds streaming snapshots, an always-on
flight recorder that freezes breach-triggered incident bundles, and a
:class:`MetricsServer` HTTP endpoint for mid-run scrapes. See
README.md "Observability" for the span schema and metric names.
"""

from repro.obs.digest import QuantileDigest
from repro.obs.explain import DecisionLog, DecisionRecord, format_decision
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    StreamingHistogram,
)
from repro.obs.profile import (
    LatencyAttributor,
    ProfileDiff,
    QueryAttribution,
    diff_profiles,
    read_profile_json,
    write_profile_json,
)
from repro.obs.live import (
    INCIDENT_SCHEMA,
    AnomalyWatchdog,
    FlightRecorder,
    LiveConfig,
    LiveTelemetry,
    TelemetrySnapshot,
    incident_fingerprint,
    read_incident_json,
    write_incident_json,
)
from repro.obs.report import (
    render_incident,
    render_profile,
    render_report,
    render_slo,
    render_top,
    sparkline,
)
from repro.obs.serve import MetricsServer
from repro.obs.slo import Episode, SLOConfig, SLOMonitor, replay_spans
from repro.obs.spans import KINDS, Span, span_sequence, spans_of_kind
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    RecordingTracer,
    Tracer,
)
from repro.obs.export import (
    chrome_trace_events,
    metrics_to_prometheus,
    parse_prometheus_text,
    read_spans_jsonl,
    write_chrome_trace,
    write_prometheus,
    write_spans_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "StreamingHistogram",
    "QuantileDigest",
    "Span",
    "KINDS",
    "span_sequence",
    "spans_of_kind",
    "Tracer",
    "NullTracer",
    "RecordingTracer",
    "NULL_TRACER",
    "SLOConfig",
    "SLOMonitor",
    "Episode",
    "replay_spans",
    "DecisionLog",
    "DecisionRecord",
    "format_decision",
    "chrome_trace_events",
    "metrics_to_prometheus",
    "parse_prometheus_text",
    "read_spans_jsonl",
    "write_chrome_trace",
    "write_prometheus",
    "write_spans_jsonl",
    "LatencyAttributor",
    "QueryAttribution",
    "ProfileDiff",
    "diff_profiles",
    "read_profile_json",
    "write_profile_json",
    "render_profile",
    "render_report",
    "render_slo",
    "sparkline",
    "LiveConfig",
    "LiveTelemetry",
    "TelemetrySnapshot",
    "AnomalyWatchdog",
    "FlightRecorder",
    "INCIDENT_SCHEMA",
    "incident_fingerprint",
    "read_incident_json",
    "write_incident_json",
    "MetricsServer",
    "render_incident",
    "render_top",
]
