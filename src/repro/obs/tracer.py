"""Query-lifecycle tracers for the serving simulator.

``EnsembleServer`` holds exactly one tracer. The default
:data:`NULL_TRACER` keeps tracing free when unused: the server reads
``tracer.enabled`` once per run and guards every emit site with that
boolean, so the disabled path costs one attribute access at setup and
one branch per event — the benchmark guard in
``benchmarks/bench_obs_overhead.py`` holds that under 5% wall-clock.

:class:`RecordingTracer` collects the structured span stream *and*
folds it into a :class:`~repro.obs.metrics.MetricsRegistry` as spans
arrive (streaming, bounded memory): buffer depth over simulated time,
per-worker busy seconds, scheduler invocation latency (simulated
overhead and real wall-clock), plan sizes and deadline slack. Its
``emit`` is also the one span hook of an attached live plane
(:mod:`repro.obs.live`): boundary flush, flight-recorder store, and
the outcome and trigger hooks in the fold chain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import (
    ADMISSION_CHANGE,
    ANOMALY,
    ARRIVAL,
    COMPLETE,
    DEGRADE_MODE,
    DEGRADED,
    DISPATCH,
    ENTER_BUFFER,
    FAST_PATH,
    INCIDENT,
    PLAN,
    QUEUE_WAIT,
    REJECT,
    REQUEUE,
    RESTORE,
    RETRY,
    ROUTE,
    SCALE_DOWN,
    SCALE_UP,
    SCHED_FALLBACK,
    SCHED_PHASE,
    SCHEDULE,
    SHED,
    SLO_BREACH,
    SLO_RECOVERED,
    SNAPSHOT,
    TASK_FAILED,
    WORKER_DOWN,
    Span,
)

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import
    from repro.obs.live import LiveTelemetry
    from repro.obs.slo import SLOMonitor


class Tracer:
    """No-op tracer interface; subclass and set ``enabled = True``.

    ``profile`` opts into the latency-profiling span kinds
    (``sched_phase``/``queue_wait``): the server reads it once per run
    and only a profiling tracer pays for those extra emit sites.
    """

    enabled: bool = False
    profile: bool = False
    metrics: Optional[MetricsRegistry] = None
    live: "Optional[LiveTelemetry]" = None

    def emit(self, kind: str, time: float, query_id: int = -1, **attrs):
        """Record one lifecycle event (no-op here)."""

    def finalize(self, end_time: float) -> None:
        """Close the trace; ``end_time`` is the last simulated instant."""


class NullTracer(Tracer):
    """The zero-overhead default: every hook is a no-op."""


#: Shared default instance — stateless, safe to reuse across servers.
NULL_TRACER = NullTracer()


class RecordingTracer(Tracer):
    """Collects spans and streams them into a metrics registry.

    Args:
        keep_spans: Set False to keep only the metrics (constant memory
            for arbitrarily long traces).
        compression: Histogram digest compression δ (quantile accuracy
            vs memory; see :class:`~repro.obs.digest.QuantileDigest`).
        slo: Optional :class:`~repro.obs.slo.SLOMonitor` fed from the
            span stream; breach/recovery events come back out as spans
            and counters through this tracer.
        profile: Opt into latency profiling: the server additionally
            emits ``sched_phase`` spans (scheduler step-phase wall
            clock, when the scheduler supports phase timers) and
            ``queue_wait`` spans (per-task wait behind a busy worker),
            folded here into ``sched.phase_s.*`` counters and the
            ``task.queue_wait_s`` histogram. Off by default so
            unprofiled traces stay span-for-span identical to before.
        live: Optional :class:`~repro.obs.live.LiveTelemetry` plane,
            driven from :meth:`emit` alone: each span flushes the
            snapshot boundaries it passes before it is stored or
            folded, so windows partition the stream exactly, and the
            fold chain hands outcome and trigger kinds to the plane.
            The plane's own ``snapshot``/``anomaly``/``incident`` spans
            come back out through this tracer. ``None`` (the default)
            keeps the emit path identical to pre-live behaviour.
    """

    enabled = True

    def __init__(
        self,
        keep_spans: bool = True,
        compression: int = 128,
        slo: Optional["SLOMonitor"] = None,
        profile: bool = False,
        live: "Optional[LiveTelemetry]" = None,
    ):
        self.keep_spans = keep_spans
        self.slo = slo
        self.live = live
        self.profile = bool(profile)
        self.spans: List[Span] = []
        self.metrics = MetricsRegistry()
        self.end_time = 0.0
        # Per-worker committed busy seconds, downtime seconds and
        # worker -> model map, accumulated from dispatch/down spans.
        self.worker_busy: Dict[int, float] = {}
        self.worker_model: Dict[int, int] = {}
        self.worker_downtime: Dict[int, float] = {}
        m = self.metrics
        self._buffer_depth = m.gauge("buffer.depth")
        self._sched_wall = m.histogram("scheduler.wall_s", compression)
        self._sched_sim = m.histogram(
            "scheduler.overhead_sim_s", compression
        )
        self._sched_batch = m.histogram("scheduler.batch_size", compression)
        self._plan_size = m.histogram("plan.size", compression)
        self._slack = m.histogram("deadline.slack_s", compression)
        self._latency = m.histogram("query.latency_s", compression)
        self.compression = compression
        if slo is not None:
            slo.bind(self)
        if live is not None:
            live.bind(self)

    def emit(self, kind: str, time: float, query_id: int = -1, **attrs):
        """Record one lifecycle event and update the derived metrics."""
        live = self.live
        if live is not None:
            # The live plane's one span hook, inline because an extra
            # Python call per span would be its largest cost. A span
            # past a snapshot boundary flushes it before it is stored
            # or folded, so it stays out of the closed window (its
            # snapshot and the bundles frozen at it) and after the
            # boundary's snapshot span in the kept stream. The
            # re-entrancy guard only matters at a boundary: the
            # plane's own spans are meta kinds and _flush advances
            # _next_due before emitting. The recorder's row list takes
            # every span; with kept spans its list is this tracer's
            # own. Outcome and trigger kinds reach the plane from their
            # branches of the fold chain below.
            if time >= live._next_due and not live._emitting:
                live._flush(time)
            ring_append = live._ring_append
            if ring_append is not None:
                ring_append((kind, time, query_id, attrs))
        if self.keep_spans:
            self.spans.append(Span(kind, time, query_id, attrs))
        if time > self.end_time:
            self.end_time = time
        metrics = self.metrics
        if kind == DISPATCH:
            metrics.counter("tasks.dispatched").inc()
            worker = int(attrs["worker"])
            self.worker_busy[worker] = (
                self.worker_busy.get(worker, 0.0)
                + float(attrs["finish"]) - float(attrs["start"])
            )
            self.worker_model.setdefault(worker, int(attrs["model"]))
        elif kind == ARRIVAL:
            metrics.counter("queries.arrived").inc()
        elif kind == ENTER_BUFFER:
            self._buffer_depth.sample(time, attrs["depth"])
        elif kind == SCHEDULE:
            metrics.counter("scheduler.invocations").inc()
            self._sched_wall.add(attrs["wall_s"])
            self._sched_sim.add(attrs["overhead_sim_s"])
            self._sched_batch.add(attrs["batch"])
            self._buffer_depth.sample(time, attrs["depth"])
        elif kind == PLAN:
            self._plan_size.add(attrs["size"])
        elif kind == COMPLETE:
            if live is not None and live.watchdog is not None:
                live.watchdog.ingest(
                    missed=float(attrs["slack"]) < 0.0,
                    latency=float(attrs["latency"]),
                )
            metrics.counter("queries.completed").inc()
            self._slack.add(attrs["slack"])
            self._latency.add(attrs["latency"])
            if self.slo is not None:
                self.slo.observe(
                    time,
                    missed=float(attrs["slack"]) < 0.0,
                    degraded=bool(attrs.get("degraded", False)),
                )
        elif kind == REJECT:
            if live is not None and live.watchdog is not None:
                live.watchdog.ingest(missed=True, latency=None)
            metrics.counter("queries.rejected").inc()
            if self.slo is not None:
                self.slo.observe(time, missed=True)
        elif kind == REQUEUE:
            self._buffer_depth.sample(time, attrs["depth"])
        elif kind == FAST_PATH:
            metrics.counter("queries.fast_path").inc()
        elif kind == TASK_FAILED:
            metrics.counter("tasks.failed").inc()
            metrics.counter(f"tasks.failed.{attrs.get('reason', '?')}").inc()
        elif kind == RETRY:
            metrics.counter("tasks.retried").inc()
        elif kind == WORKER_DOWN:
            # Every trigger hooks before its fold: a frozen bundle's
            # totals never count the trigger span itself.
            if live is not None:
                live._maybe_trigger(kind, time, query_id, attrs)
            metrics.counter("workers.crashes").inc()
            worker = int(attrs["worker"])
            self.worker_downtime[worker] = (
                self.worker_downtime.get(worker, 0.0)
                + float(attrs["until"]) - time
            )
        elif kind == DEGRADED:
            metrics.counter("queries.degraded").inc()
        elif kind == SCHED_FALLBACK:
            # Learned fast-path scheduler: one span per invocation,
            # split into size-routed calls, DP fallbacks and
            # fast-path-served plans, so the fallback rate over the
            # calls offered to the fast path is a first-class metric
            # (sched.fallbacks / (sched.fallbacks + sched.fast_served)).
            if attrs.get("size_routed", False):
                metrics.counter("sched.size_routed").inc()
            elif attrs.get("fallback", False):
                metrics.counter("sched.fallbacks").inc()
            else:
                metrics.counter("sched.fast_served").inc()
        elif kind == ROUTE:
            # Fleet front-end placement (repro.fleet): every admitted
            # query is routed exactly once; redirected marks a query
            # whose policy-chosen shard was full and was re-routed by
            # admission control instead of shed.
            metrics.counter("router.routed").inc()
            metrics.counter(f"router.shard.{attrs['shard']}").inc()
            metrics.counter("admission.admitted").inc()
            if attrs.get("redirected", False):
                metrics.counter("router.redirected").inc()
        elif kind == SHED:
            metrics.counter("admission.shed").inc()
        elif kind == SLO_BREACH:
            if live is not None:
                live._maybe_trigger(kind, time, query_id, attrs)
            metrics.counter("slo.breaches").inc()
        elif kind == SLO_RECOVERED:
            metrics.counter("slo.recoveries").inc()
        elif kind == SCALE_UP:
            # Control plane (repro.control): capacity and quality
            # actuations show up as counters so profile/explain/diff
            # see controller activity without parsing the action log.
            if live is not None:
                live._maybe_trigger(kind, time, query_id, attrs)
            metrics.counter("control.scale_ups").inc()
            metrics.gauge("control.replica_level").sample(
                time, attrs.get("level", 0)
            )
        elif kind == SCALE_DOWN:
            metrics.counter("control.scale_downs").inc()
            metrics.gauge("control.replica_level").sample(
                time, attrs.get("level", 0)
            )
        elif kind == DEGRADE_MODE:
            if live is not None:
                live._maybe_trigger(kind, time, query_id, attrs)
            metrics.counter("control.degrades").inc()
        elif kind == RESTORE:
            metrics.counter("control.restores").inc()
        elif kind == ADMISSION_CHANGE:
            metrics.counter("control.admission_changes").inc()
            metrics.gauge("control.queue_limit").sample(
                time, attrs.get("queue_limit", 0)
            )
        elif kind == SCHED_PHASE:
            metrics.counter(
                f"sched.phase_s.{attrs.get('phase', '?')}"
            ).inc(float(attrs.get("wall_s", 0.0)))
        elif kind == QUEUE_WAIT:
            # Created lazily: unprofiled runs never see this span kind,
            # so their registries keep the pre-profiling metric set.
            metrics.histogram(
                "task.queue_wait_s", self.compression
            ).add(float(attrs["wait_s"]))
        elif kind == SNAPSHOT:
            metrics.counter("telemetry.snapshots").inc()
        elif kind == ANOMALY:
            metrics.counter("anomaly.detected").inc()
            metrics.counter(
                f"anomaly.{attrs.get('signal', '?')}"
            ).inc()
        elif kind == INCIDENT:
            metrics.counter("incident.bundles").inc()

    def finalize(self, end_time: float) -> None:
        """Freeze the trace end; later ``utilization`` uses it."""
        if end_time > self.end_time:
            self.end_time = end_time
        if self.slo is not None:
            self.slo.finalize(end_time)
        if self.live is not None:
            self.live.finalize(end_time)

    def utilization(self, duration: Optional[float] = None) -> Dict[int, float]:
        """Per-worker busy fraction over the run (or ``duration``).

        Committed work may extend past the last event (a task can still
        be "executing" when the trace ends); fractions are clipped to 1.
        """
        horizon = duration if duration is not None else self.end_time
        if not horizon or horizon <= 0:
            return {w: 0.0 for w in self.worker_busy}
        return {
            worker: min(busy / horizon, 1.0)
            for worker, busy in sorted(self.worker_busy.items())
        }
