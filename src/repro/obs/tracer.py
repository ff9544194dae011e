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
overhead and real wall-clock), plan sizes and deadline slack. Each
span costs one lookup in a ``kind -> fold`` table built with the
tracer, whose folds hold their metric objects. The tracer stores each
span once, as a ``(kind, time, query_id, attrs)`` row; :class:`Span`
objects are built from the rows when read. ``emit`` is also the one
span hook of an attached live plane (:mod:`repro.obs.live`), whose
flight recorder is a window over the same rows: boundary flush and
store, then the outcome and trigger hooks inside the folds."""

from __future__ import annotations

from itertools import starmap
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.obs import spans as sp
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import
    from repro.obs.live import LiveTelemetry
    from repro.obs.slo import SLOMonitor

#: Kinds that reach the live plane's recorder before their counter
#: moves (``anomaly`` fires from the watchdog, at a boundary).
_TRIGGERS = frozenset(
    (sp.WORKER_DOWN, sp.SLO_BREACH, sp.SCALE_UP, sp.DEGRADE_MODE)
)

#: Kinds whose fold is one count: kind -> counter. Control-plane
#: actuations count too, so profile/explain/diff see the controller.
_COUNTED = {
    sp.ARRIVAL: "queries.arrived", sp.FAST_PATH: "queries.fast_path",
    sp.RETRY: "tasks.retried", sp.DEGRADED: "queries.degraded",
    sp.SHED: "admission.shed", sp.SLO_BREACH: "slo.breaches",
    sp.SLO_RECOVERED: "slo.recoveries", sp.SCALE_UP: "control.scale_ups",
    sp.SCALE_DOWN: "control.scale_downs", sp.RESTORE: "control.restores",
    sp.DEGRADE_MODE: "control.degrades", sp.INCIDENT: "incident.bundles",
    sp.ADMISSION_CHANGE: "control.admission_changes",
    sp.SNAPSHOT: "telemetry.snapshots",
}
#: Counted kinds that also sample a gauge: kind -> (gauge, attribute).
_SAMPLED = {
    sp.SCALE_UP: ("control.replica_level", "level"),
    sp.SCALE_DOWN: ("control.replica_level", "level"),
    sp.ADMISSION_CHANGE: ("control.queue_limit", "queue_limit"),
}


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
            for arbitrarily long traces): no rows at all without a live
            plane, and with one only the recent rows its flight recorder
            trims back to at each snapshot boundary.
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
            folds hand outcome and trigger kinds to the plane.
            The plane's own ``snapshot``/``anomaly``/``incident`` spans
            come back out through this tracer. ``None`` (the default)
            keeps the emit path identical to pre-live behaviour.

    Attributes:
        rows: The one span store: every span as a ``(kind, time,
            query_id, attrs)`` tuple in emission order (the attrs dict
            is the one ``emit`` received, never copied), or ``None``
            when the tracer neither keeps spans nor carries a plane.
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
        self.rows: Optional[List[tuple]] = (
            [] if keep_spans or live is not None else None
        )
        self.metrics = MetricsRegistry()
        self.end_time = 0.0
        # Per-worker committed busy seconds, downtime seconds and
        # worker -> model map, accumulated from dispatch/down spans.
        self.worker_busy: Dict[int, float] = {}
        self.worker_model: Dict[int, int] = {}
        self.worker_downtime: Dict[int, float] = {}
        self.compression = compression
        self._folds = self._fold_table()
        if slo is not None:
            slo.bind(self)
        if live is not None:
            live.bind(self)

    def emit(self, kind: str, time: float, query_id: int = -1, **attrs):
        """Record one lifecycle event and update the derived metrics.

        The live plane's one span hook is inline, because an extra call
        per span would be its largest cost: a span past a snapshot
        boundary flushes it before it is stored or folded, so it stays
        out of the closed window and after the boundary's snapshot span
        (the guard matters only there: ``_flush`` advances ``_next_due``
        before its meta spans). Then the span is stored once, as a row.
        """
        live = self.live
        if live is not None and time >= live._next_due and not live._emitting:
            live._flush(time)
        rows = self.rows
        if rows is not None:
            rows.append((kind, time, query_id, attrs))
        if time > self.end_time:
            self.end_time = time
        fold = self._folds.get(kind)
        if fold is not None:
            fold(time, query_id, attrs)

    @property
    def spans(self) -> List[Span]:
        """The kept spans in emission order, a new list of :class:`Span`
        objects built from :attr:`rows` on each read (empty unless
        ``keep_spans``)."""
        if not self.keep_spans:
            return []
        return list(starmap(Span, self.rows))

    def _fold_table(self) -> Dict[str, Callable[[float, int, dict], None]]:
        """``kind -> fold(time, query_id, attrs)``, folds holding their
        metrics: the histograms and depth gauge from construction, every
        other metric from the first fold that moves it. The watchdog sees
        a resolved query before its fold, the ``slo`` monitor after it;
        a trigger kind reaches the recorder before its counter moves, so
        a bundle never counts its own trigger."""
        metrics, slo, live = self.metrics, self.slo, self.live
        watchdog = live.watchdog if live is not None else None
        ingest = watchdog.ingest if watchdog is not None else None
        trigger = live._maybe_trigger if live is not None else None
        depth = metrics.gauge("buffer.depth").sample
        wall, sim, batch, plan_size, slack, latency = (
            metrics.histogram(name, self.compression)._digest
            for name in (
                "scheduler.wall_s", "scheduler.overhead_sim_s",
                "scheduler.batch_size", "plan.size", "deadline.slack_s",
                "query.latency_s",
            )
        )
        busy, model = self.worker_busy, self.worker_model
        downtime = self.worker_downtime

        def held(make, prefix=None):
            """``get(key)``: the metric ``make`` names ``prefix.key``
            (``key`` without a prefix), created by its first use."""
            bound = {}

            def get(key):
                metric = bound.get(key)
                if metric is None:
                    metric = bound[key] = make(
                        key if prefix is None else f"{prefix}.{key}"
                    )
                return metric
            return get

        count, gauge = held(metrics.counter), held(metrics.gauge)
        failed = held(metrics.counter, "tasks.failed")
        shard = held(metrics.counter, "router.shard")
        anomaly = held(metrics.counter, "anomaly")
        phase = held(metrics.counter, "sched.phase_s")
        waits = held(lambda name: metrics.histogram(name, self.compression))

        def counting(kind, name):
            hook = trigger if kind in _TRIGGERS else None
            sampled, attr = _SAMPLED.get(kind, (None, None))

            def fold(time, query_id, attrs):
                if hook is not None:
                    hook(kind, time, query_id, attrs)
                count(name).value += 1.0
                if sampled is not None:
                    gauge(sampled).sample(time, attrs.get(attr, 0))
            return fold

        def dispatch(time, query_id, attrs):
            count("tasks.dispatched").value += 1.0
            worker = int(attrs["worker"])
            busy[worker] = (
                busy.get(worker, 0.0)
                + float(attrs["finish"]) - float(attrs["start"])
            )
            model.setdefault(worker, int(attrs["model"]))

        def schedule(time, query_id, attrs):
            count("scheduler.invocations").value += 1.0
            wall.add(attrs["wall_s"])
            sim.add(attrs["overhead_sim_s"])
            batch.add(attrs["batch"])
            depth(time, attrs["depth"])

        def complete(time, query_id, attrs):
            if ingest is not None:
                ingest(
                    missed=float(attrs["slack"]) < 0.0,
                    latency=float(attrs["latency"]),
                )
            count("queries.completed").value += 1.0
            slack.add(attrs["slack"])
            latency.add(attrs["latency"])
            if slo is not None:
                slo.observe(
                    time,
                    missed=float(attrs["slack"]) < 0.0,
                    degraded=bool(attrs.get("degraded", False)),
                )

        def reject(time, query_id, attrs):
            if ingest is not None:
                ingest(missed=True, latency=None)
            count("queries.rejected").value += 1.0
            if slo is not None:
                slo.observe(time, missed=True)

        def task_failed(time, query_id, attrs):
            count("tasks.failed").value += 1.0
            failed(attrs.get("reason", "?")).value += 1.0

        def worker_down(time, query_id, attrs):
            if trigger is not None:
                trigger(sp.WORKER_DOWN, time, query_id, attrs)
            count("workers.crashes").value += 1.0
            worker = int(attrs["worker"])
            downtime[worker] = (
                downtime.get(worker, 0.0) + float(attrs["until"]) - time
            )

        def sched_fallback(time, query_id, attrs):
            # Learned scheduler, one span per call: the fallback rate is
            # sched.fallbacks / (sched.fallbacks + sched.fast_served).
            count(
                "sched.size_routed" if attrs.get("size_routed", False)
                else "sched.fallbacks" if attrs.get("fallback", False)
                else "sched.fast_served"
            ).value += 1.0

        def route(time, query_id, attrs):
            # Fleet front-end placement: every admitted query is routed
            # once; redirected marks a re-route by admission control.
            count("router.routed").value += 1.0
            shard(attrs["shard"]).value += 1.0
            count("admission.admitted").value += 1.0
            if attrs.get("redirected", False):
                count("router.redirected").value += 1.0

        def detected(time, query_id, attrs):
            anomaly("detected").value += 1.0
            anomaly(attrs.get("signal", "?")).value += 1.0

        table = {kind: counting(kind, name) for kind, name in _COUNTED.items()}
        table.update({
            sp.DISPATCH: dispatch,
            sp.ENTER_BUFFER: lambda t, q, attrs: depth(t, attrs["depth"]),
            sp.REQUEUE: lambda t, q, attrs: depth(t, attrs["depth"]),
            sp.SCHEDULE: schedule,
            sp.PLAN: lambda t, q, attrs: plan_size.add(attrs["size"]),
            sp.COMPLETE: complete,
            sp.REJECT: reject,
            sp.TASK_FAILED: task_failed,
            sp.WORKER_DOWN: worker_down,
            sp.SCHED_FALLBACK: sched_fallback,
            sp.ROUTE: route,
            sp.SCHED_PHASE: lambda t, q, attrs: phase(
                attrs.get("phase", "?")
            ).inc(float(attrs.get("wall_s", 0.0))),
            sp.QUEUE_WAIT: lambda t, q, attrs: waits(
                "task.queue_wait_s"
            ).add(float(attrs["wait_s"])),
            sp.ANOMALY: detected,
        })
        return table

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
