"""Tracer behaviour: null default, span capture, streaming metrics."""

import pytest

from repro.obs import spans as sp
from repro.obs.tracer import NULL_TRACER, NullTracer, RecordingTracer


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.metrics is None
        # No-ops, no state, no errors.
        NULL_TRACER.emit(sp.ARRIVAL, 0.0, 1, deadline=1.0)
        NULL_TRACER.finalize(10.0)

    def test_fresh_instance_equivalent(self):
        assert not NullTracer().enabled


class TestRecordingTracer:
    def _traced(self):
        tr = RecordingTracer()
        tr.emit(sp.ARRIVAL, 0.0, 0, deadline=1.0)
        tr.emit(sp.ENTER_BUFFER, 0.0, 0, depth=1)
        tr.emit(sp.SCHEDULE, 0.0, batch=1, depth=0, work_units=4,
                overhead_sim_s=0.001, wall_s=0.0005)
        tr.emit(sp.COMMIT, 0.001, decisions=1)
        tr.emit(sp.DISPATCH, 0.001, 0, model=1, worker=1,
                start=0.001, finish=0.101)
        tr.emit(sp.PLAN, 0.001, 0, size=1)
        tr.emit(sp.TASK_DONE, 0.101, 0, model=1)
        tr.emit(sp.COMPLETE, 0.101, 0, latency=0.101, slack=0.899)
        tr.finalize(0.101)
        return tr

    def test_span_stream_recorded(self):
        tr = self._traced()
        assert [s.kind for s in tr.spans] == [
            sp.ARRIVAL, sp.ENTER_BUFFER, sp.SCHEDULE, sp.COMMIT,
            sp.DISPATCH, sp.PLAN, sp.TASK_DONE, sp.COMPLETE,
        ]
        assert sp.span_sequence(tr.spans, 0) == [
            sp.ARRIVAL, sp.ENTER_BUFFER, sp.DISPATCH, sp.PLAN,
            sp.TASK_DONE, sp.COMPLETE,
        ]

    def test_metrics_streamed(self):
        m = self._traced().metrics
        assert m.counter("queries.arrived").value == 1
        assert m.counter("queries.completed").value == 1
        assert m.counter("scheduler.invocations").value == 1
        assert m.counter("tasks.dispatched").value == 1
        assert m.histogram("scheduler.wall_s").mean == pytest.approx(5e-4)
        assert m.histogram("deadline.slack_s").mean == pytest.approx(0.899)
        assert m.histogram("plan.size").mean == 1.0
        assert m.gauge("buffer.depth").last == 0.0

    def test_worker_accounting(self):
        tr = self._traced()
        assert tr.worker_busy == {1: pytest.approx(0.1)}
        assert tr.worker_model == {1: 1}
        util = tr.utilization(1.0)
        assert util[1] == pytest.approx(0.1)
        # Default horizon = trace end (0.101s).
        assert tr.utilization()[1] == pytest.approx(0.1 / 0.101)

    def test_keep_spans_false_keeps_metrics_only(self):
        tr = RecordingTracer(keep_spans=False)
        tr.emit(sp.ARRIVAL, 0.0, 0)
        assert tr.spans == []
        assert tr.rows is None
        assert tr.metrics.counter("queries.arrived").value == 1

    def test_reject_counts(self):
        tr = RecordingTracer()
        tr.emit(sp.REJECT, 1.0, 3, reason="unserved")
        assert tr.metrics.counter("queries.rejected").value == 1
        assert tr.spans[0].attrs["reason"] == "unserved"

    def test_finalize_keeps_latest_end(self):
        tr = RecordingTracer()
        tr.emit(sp.ARRIVAL, 5.0, 0)
        tr.finalize(2.0)  # earlier than last span: ignored
        assert tr.end_time == 5.0


# -- the fold table against the chain it replaced --------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.obs.live import (  # noqa: E402
    LiveConfig,
    LiveTelemetry,
    incident_fingerprint,
)
from repro.obs.metrics import Counter, Gauge, StreamingHistogram  # noqa: E402
from repro.obs.slo import SLOConfig, SLOMonitor  # noqa: E402

from ._reference_fold import ReferenceTracer  # noqa: E402

_seconds = st.floats(0.0, 0.2, allow_nan=False)
_signed = st.floats(-0.2, 0.2, allow_nan=False)
_small = st.integers(0, 5)
_worker = st.integers(0, 5)

#: Each kind with the attributes its emit sites pass (several shards,
#: failure reasons, anomaly signals and profile phases).
ATTRS = {
    sp.ARRIVAL: st.fixed_dictionaries({"deadline": _seconds}),
    sp.ENTER_BUFFER: st.fixed_dictionaries({"depth": _small}),
    sp.SCHEDULE: st.fixed_dictionaries({
        "batch": _small, "depth": _small, "work_units": _small,
        "overhead_sim_s": _seconds, "wall_s": _seconds,
    }),
    sp.COMMIT: st.fixed_dictionaries({"decisions": _small}),
    sp.PLAN: st.fixed_dictionaries({"size": _small}),
    sp.DISPATCH: st.fixed_dictionaries({
        "model": st.integers(0, 2), "worker": _worker, "start": _seconds,
        "finish": _seconds, "attempt": _small,
    }),
    sp.TASK_DONE: st.fixed_dictionaries({"model": st.integers(0, 2)}),
    sp.COMPLETE: st.fixed_dictionaries(
        {"latency": _seconds, "slack": _signed},
        optional={"degraded": st.booleans()},
    ),
    sp.REJECT: st.fixed_dictionaries({"reason": st.sampled_from(
        ["unserved", "faulted", "infeasible", "estimate", "shed"]
    )}),
    sp.REQUEUE: st.fixed_dictionaries({"depth": _small}),
    sp.FAST_PATH: st.just({}),
    sp.TASK_FAILED: st.fixed_dictionaries({
        "model": st.integers(0, 2), "worker": _worker, "attempt": _small,
        "reason": st.sampled_from(["fault", "timeout", "crash"]),
    }),
    sp.RETRY: st.fixed_dictionaries({
        "model": st.integers(0, 2), "attempt": _small, "backoff": _seconds,
        "reason": st.sampled_from(["failure", "failover"]),
    }),
    sp.WORKER_DOWN: st.fixed_dictionaries(
        {"worker": _worker, "until": _seconds}
    ),
    sp.WORKER_UP: st.fixed_dictionaries({"worker": _worker}),
    sp.DEGRADED: st.fixed_dictionaries(
        {"executed_mask": st.integers(1, 7), "failed_mask": st.integers(1, 7)}
    ),
    sp.SLO_BREACH: st.fixed_dictionaries({"burn": _seconds}),
    sp.SLO_RECOVERED: st.fixed_dictionaries({"burn": _seconds}),
    sp.DECISION: st.fixed_dictionaries({"mask": st.integers(0, 7)}),
    sp.ROUTE: st.fixed_dictionaries({
        "shard": st.integers(0, 3), "backlog": _small,
        "policy": st.just("power_of_two"), "redirected": st.booleans(),
    }),
    sp.SHED: st.fixed_dictionaries(
        {"policy": st.just("hash"), "backlog": _small}
    ),
    sp.SCALE_UP: st.fixed_dictionaries(
        {"shard": st.integers(0, 3), "level": _small, "burn": _seconds}
    ),
    sp.SCALE_DOWN: st.fixed_dictionaries(
        {"shard": st.integers(0, 3), "level": _small, "burn": _seconds}
    ),
    sp.DEGRADE_MODE: st.fixed_dictionaries(
        {"cheap_mask": st.integers(1, 7), "burn": _seconds}
    ),
    sp.RESTORE: st.fixed_dictionaries({"burn": _seconds}),
    sp.ADMISSION_CHANGE: st.fixed_dictionaries(
        {"queue_limit": _small, "tightened": st.booleans()}
    ),
    sp.SCHED_FALLBACK: st.fixed_dictionaries({
        "size_routed": st.booleans(), "fallback": st.booleans(),
        "predicted_regret": _seconds,
    }),
    sp.SCHED_PHASE: st.fixed_dictionaries({
        "phase": st.sampled_from(["extend", "prune", "backtrack"]),
        "wall_s": _seconds,
    }),
    sp.QUEUE_WAIT: st.fixed_dictionaries({
        "model": st.integers(0, 2), "worker": _worker, "wait_s": _seconds,
    }),
    sp.SNAPSHOT: st.fixed_dictionaries({"seq": _small}),
    sp.ANOMALY: st.fixed_dictionaries({
        "signal": st.sampled_from(["latency", "miss_rate"]),
        "window_events": _seconds,
    }),
    sp.INCIDENT: st.fixed_dictionaries(
        {"trigger": st.just(sp.WORKER_DOWN), "seq": _small, "spans": _small}
    ),
}

assert set(ATTRS) == set(sp.KINDS)

SPAN = st.sampled_from(sp.KINDS).flatmap(lambda kind: st.tuples(
    st.just(kind), st.floats(0.0, 0.3, allow_nan=False),
    st.integers(-1, 6), ATTRS[kind],
))


def fold(cls, stream, slo, live):
    """Fold ``stream`` through a fresh ``cls`` tracer."""
    tracer = cls(
        slo=SLOMonitor(SLOConfig(
            windows=(1.0,), alert_window=1.0, min_events=3,
            breach_burn=2.0, recover_burn=1.0,
        )) if slo else None,
        live=LiveTelemetry(LiveConfig(
            cadence=0.5, ring_capacity=16, baseline_windows=1,
            anomaly_min_events=2, anomaly_latency_factor=1.5,
            anomaly_miss_factor=1.5, anomaly_miss_floor=0.05,
            incident_cooldown=0.25,
        )) if live else None,
    )
    now = 0.0
    for kind, step, query_id, attrs in stream:
        now += step
        tracer.emit(kind, now, query_id, **dict(attrs))
    tracer.finalize(now + 0.1)
    return tracer


def folded(tracer):
    """Everything a fold leaves behind, in comparable form."""
    registry = tracer.metrics
    metrics = {}
    for name in registry.names():
        metric = registry.get(name)
        if isinstance(metric, Counter):
            metrics[name] = ("counter", metric.value)
        elif isinstance(metric, Gauge):
            times, values = metric.as_arrays()
            metrics[name] = ("gauge", times.tolist(), values.tolist())
        else:
            assert isinstance(metric, StreamingHistogram)
            metrics[name] = ("histogram", metric.checkpoint())
    out = {
        "metrics": metrics,
        "busy": tracer.worker_busy,
        "model": tracer.worker_model,
        "downtime": tracer.worker_downtime,
        "end": tracer.end_time,
        "spans": [s.to_dict() for s in tracer.spans],
    }
    if tracer.live is not None:
        out["snapshots"] = [s.to_dict() for s in tracer.live.snapshots]
        out["bundles"] = [
            incident_fingerprint(b) for b in tracer.live.incidents
        ]
    if tracer.slo is not None:
        out["episodes"] = tracer.slo.episodes
    return out


class TestFoldTable:
    @settings(max_examples=150, deadline=None)
    @given(
        stream=st.lists(SPAN, max_size=80),
        slo=st.booleans(),
        live=st.booleans(),
    )
    def test_folds_like_the_chain(self, stream, slo, live):
        assert folded(fold(RecordingTracer, stream, slo, live)) == folded(
            fold(ReferenceTracer, stream, slo, live)
        )

    def test_metrics_are_created_by_their_first_fold(self):
        tracer = RecordingTracer()
        assert "queries.arrived" not in tracer.metrics
        tracer.emit(sp.TASK_DONE, 0.0, 0, model=1)
        tracer.emit(sp.ROUTE, 0.0, 0, shard=2, redirected=False)
        assert "router.shard.2" in tracer.metrics
        assert "router.redirected" not in tracer.metrics
        assert "queries.arrived" not in tracer.metrics

    def test_a_trigger_freezes_before_its_counter_exists(self):
        live = LiveTelemetry(LiveConfig(cadence=10.0))
        tracer = RecordingTracer(live=live)
        tracer.emit(sp.WORKER_DOWN, 1.0, worker=0, until=2.0)
        (bundle,) = live.incidents
        assert "workers.crashes" not in bundle["totals"]
        assert tracer.metrics.get("workers.crashes").value == 1.0
