"""The fold chain ``RecordingTracer.emit`` ran before its handler table.

:class:`ReferenceTracer` is a :class:`RecordingTracer` whose ``emit`` is
the former 28-branch ``if/elif`` chain, kept verbatim as the oracle the
table is checked against (``tests/obs/test_tracer.py``): any stream must
fold to the same registry, worker maps, live-plane snapshots and
bundles through either.
"""

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
)
from repro.obs.tracer import RecordingTracer


class ReferenceTracer(RecordingTracer):
    """A recording tracer that folds through the former chain."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        get = self.metrics.get
        self._buffer_depth = get("buffer.depth")
        self._sched_wall = get("scheduler.wall_s")
        self._sched_sim = get("scheduler.overhead_sim_s")
        self._sched_batch = get("scheduler.batch_size")
        self._plan_size = get("plan.size")
        self._slack = get("deadline.slack_s")
        self._latency = get("query.latency_s")

    def emit(self, kind: str, time: float, query_id: int = -1, **attrs):
        """Record one lifecycle event and update the derived metrics."""
        live = self.live
        # The live plane's one span hook, as RecordingTracer.emit has
        # it: a span past a snapshot boundary flushes it before it is
        # stored or folded, then it is stored once, as a row. Outcome
        # and trigger kinds reach the plane from their branches of the
        # fold chain below.
        if live is not None and time >= live._next_due and not live._emitting:
            live._flush(time)
        rows = self.rows
        if rows is not None:
            rows.append((kind, time, query_id, attrs))
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

