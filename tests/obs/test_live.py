"""Tests of the live telemetry plane (``repro.obs.live``).

Covers the snapshot stream (cadence windows, delta encoding, digest
checkpoints, fleet rollup), the anomaly watchdog, the flight recorder
in both stores (per-span deque vs a view over the tracer's span list,
one hook path), incident freezing (triggers, cooldown, caps), windows
that end at their boundary in a served run, bundle serialization, and
the determinism contract (:func:`incident_fingerprint`).
"""

import math

import numpy as np
import pytest

from repro.obs.live import (
    INCIDENT_SCHEMA,
    AnomalyWatchdog,
    LiveConfig,
    LiveTelemetry,
    TelemetrySnapshot,
    incident_fingerprint,
    read_incident_json,
    write_incident_json,
)
from repro.obs.spans import (
    ANOMALY,
    ARRIVAL,
    COMPLETE,
    INCIDENT,
    REJECT,
    SLO_BREACH,
    SNAPSHOT,
    TASK_FAILED,
    WORKER_DOWN,
)
from repro.obs.tracer import RecordingTracer
from repro.scheduling.dp import DPScheduler
from repro.serving.policies import BufferedSchedulingPolicy
from repro.serving.server import EnsembleServer
from repro.serving.workload import ServingWorkload


def complete(tracer, time, qid, latency=0.01, slack=0.02):
    tracer.emit(COMPLETE, time, qid, latency=latency, slack=slack)


def feed_window(tracer, start, n=10, latency=0.01, slack=0.02):
    """``n`` arrival+complete pairs spread inside ``[start, start+1)``."""
    for i in range(n):
        t = start + (i + 0.5) / (n + 1)
        tracer.emit(ARRIVAL, t, 1000 * int(start) + i)
        complete(tracer, t, 1000 * int(start) + i,
                 latency=latency, slack=slack)


class TestLiveConfig:
    def test_rejects_bad_cadence(self):
        with pytest.raises(ValueError, match="cadence"):
            LiveConfig(cadence=0.0)

    def test_rejects_bad_ring_capacity(self):
        with pytest.raises(ValueError, match="ring_capacity"):
            LiveConfig(ring_capacity=0)

    def test_rejects_non_blowup_factors(self):
        with pytest.raises(ValueError, match="factors"):
            LiveConfig(anomaly_latency_factor=1.0)

    def test_rejects_unknown_trigger_kind(self):
        with pytest.raises(ValueError, match="unknown trigger"):
            LiveConfig(triggers=("not_a_span_kind",))

    def test_rejects_span_kinds_the_fold_chain_does_not_hook(self):
        # task_failed is a span kind, but no fold-chain branch hands it
        # to the plane, so it could never freeze a bundle.
        with pytest.raises(ValueError, match="unknown trigger"):
            LiveConfig(triggers=(TASK_FAILED,))


class TestSnapshots:
    def test_cadence_windows_and_deltas(self):
        live = LiveTelemetry(LiveConfig(cadence=1.0))
        tracer = RecordingTracer(live=live)
        feed_window(tracer, 0.0, n=4)
        feed_window(tracer, 1.0, n=6)
        tracer.finalize(2.5)

        # Boundaries at 1.0 and 2.0 plus the final partial at 2.5.
        times = [snap.time for snap in live.snapshots]
        assert times == [1.0, 2.0, 2.5]
        assert [snap.seq for snap in live.snapshots] == [0, 1, 2]
        first, second, _ = live.snapshots
        assert first.counters["queries.arrived"] == 4
        assert second.counters["queries.arrived"] == 6
        # Deltas vs cumulative totals.
        assert second.totals["queries.arrived"] == 10
        # Digest checkpoints are cumulative and queryable.
        assert second.totals["queries.completed"] == 10
        assert not math.isnan(second.quantile("query.latency_s", 0.5))

    def test_zero_deltas_are_omitted(self):
        live = LiveTelemetry(LiveConfig(cadence=1.0))
        tracer = RecordingTracer(live=live)
        feed_window(tracer, 0.0, n=3)
        # Second window: nothing happens.
        tracer.emit(ARRIVAL, 2.5, 99)
        snap = live.snapshots[1]  # the quiet (1.0, 2.0] window
        # Only the boundary-1.0 snapshot span itself landed in it; all
        # zero deltas are omitted.
        assert snap.counters == {"telemetry.snapshots": 1.0}
        assert snap.totals["queries.arrived"] == 3

    def test_snapshot_spans_come_back_through_the_tracer(self):
        live = LiveTelemetry(LiveConfig(cadence=1.0))
        tracer = RecordingTracer(live=live)
        feed_window(tracer, 0.0)
        feed_window(tracer, 1.0)
        tracer.finalize(2.0)
        snaps = [s for s in tracer.spans if s.kind == SNAPSHOT]
        assert [s.attrs["seq"] for s in snaps] == [0, 1]
        assert tracer.metrics.counter("telemetry.snapshots").value == 2

    def test_tick_flushes_quiet_stretches(self):
        live = LiveTelemetry(LiveConfig(cadence=1.0))
        RecordingTracer(live=live)
        # No spans at all; an epoch driver ticks past three boundaries.
        live.tick(3.5)
        assert [snap.time for snap in live.snapshots] == [1.0, 2.0, 3.0]

    def test_finalize_is_idempotent(self):
        live = LiveTelemetry(LiveConfig(cadence=1.0))
        tracer = RecordingTracer(live=live)
        feed_window(tracer, 0.0)
        tracer.finalize(1.5)
        n = len(live.snapshots)
        tracer.finalize(1.5)
        assert len(live.snapshots) == n


class TestRollup:
    def _stream(self, n_windows, n_per_window):
        live = LiveTelemetry(LiveConfig(cadence=1.0))
        tracer = RecordingTracer(live=live)
        for w in range(n_windows):
            feed_window(tracer, float(w), n=n_per_window)
        tracer.finalize(float(n_windows))
        return list(live.snapshots)

    def test_rollup_sums_counters_and_merges_digests(self):
        a = self._stream(2, 4)
        b = self._stream(2, 6)
        merged = TelemetrySnapshot.rollup([a[0], b[0]], source="fleet")
        assert merged.source == "fleet"
        assert merged.counters["queries.arrived"] == 10
        assert merged.totals["queries.completed"] == 10
        assert not math.isnan(merged.quantile("query.latency_s", 0.95))

    def test_rollup_of_nothing_raises(self):
        with pytest.raises(ValueError):
            TelemetrySnapshot.rollup([])


class TestAnomalyWatchdog:
    CONFIG = LiveConfig(
        cadence=1.0, baseline_windows=2, anomaly_min_events=5,
        anomaly_latency_factor=2.0, anomaly_miss_factor=3.0,
        anomaly_miss_floor=0.2,
    )

    def test_warmup_never_flags(self):
        dog = AnomalyWatchdog(self.CONFIG)
        for _ in range(10):
            dog.ingest(missed=True, latency=1.0)
        assert not dog.armed
        assert dog.close_window() is None

    def test_latency_blowup_flags(self):
        dog = AnomalyWatchdog(self.CONFIG)
        for _ in range(2):  # clean baseline windows
            for _ in range(10):
                dog.ingest(missed=False, latency=0.01)
            assert dog.close_window() is None
        assert dog.armed
        for _ in range(10):
            dog.ingest(missed=False, latency=0.05)
        verdict = dog.close_window()
        assert verdict is not None and verdict["signal"] == "latency"
        assert verdict["window_p95"] > verdict["baseline_p95"]

    def test_miss_rate_blowup_flags(self):
        dog = AnomalyWatchdog(self.CONFIG)
        for _ in range(2):
            for _ in range(10):
                dog.ingest(missed=False, latency=0.01)
            dog.close_window()
        for i in range(10):
            dog.ingest(missed=i % 2 == 0, latency=0.01)
        verdict = dog.close_window()
        assert verdict is not None and verdict["signal"] == "miss_rate"
        assert verdict["window_miss_rate"] == 0.5

    def test_flagged_window_is_kept_out_of_the_baseline(self):
        dog = AnomalyWatchdog(self.CONFIG)
        for _ in range(2):
            for _ in range(10):
                dog.ingest(missed=False, latency=0.01)
            dog.close_window()
        base_events = dog._base_events
        for _ in range(10):
            dog.ingest(missed=True, latency=0.01)
        assert dog.close_window() is not None
        assert dog._base_events == base_events  # not normalized away

    def test_small_windows_are_not_judged(self):
        dog = AnomalyWatchdog(self.CONFIG)
        for _ in range(2):
            for _ in range(10):
                dog.ingest(missed=False, latency=0.01)
            dog.close_window()
        for _ in range(3):  # below anomaly_min_events
            dog.ingest(missed=True, latency=9.9)
        assert dog.close_window() is None


def incident_config(**kwargs):
    kwargs.setdefault("cadence", 1.0)
    kwargs.setdefault("incident_cooldown", 0.0)
    kwargs.setdefault("watchdog", False)
    return LiveConfig(**kwargs)


class TestIncidents:
    def test_trigger_span_freezes_a_bundle(self):
        live = LiveTelemetry(incident_config())
        tracer = RecordingTracer(live=live)
        feed_window(tracer, 0.0, n=5)
        tracer.emit(SLO_BREACH, 0.9, -1, burn=2.0)
        assert len(live.incidents) == 1
        bundle = live.incidents[0]
        assert bundle["schema"] == INCIDENT_SCHEMA
        assert bundle["trigger"]["kind"] == SLO_BREACH
        assert bundle["trigger"]["attrs"] == {"burn": 2.0}
        # The triggering span itself is the window tail.
        assert bundle["spans"][-1]["kind"] == SLO_BREACH
        assert bundle["window"]["end"] == 0.9
        # ... and came back out as an incident span + counter.
        assert any(s.kind == INCIDENT for s in tracer.spans)
        assert tracer.metrics.counter("incident.bundles").value == 1

    def test_cooldown_suppresses_and_counts(self):
        live = LiveTelemetry(incident_config(incident_cooldown=10.0))
        tracer = RecordingTracer(live=live)
        feed_window(tracer, 0.0, n=5)
        tracer.emit(SLO_BREACH, 0.7, -1)
        tracer.emit(WORKER_DOWN, 0.8, -1, worker=0, until=1.5)
        assert len(live.incidents) == 1
        assert live.suppressed == 1

    def test_max_incidents_caps_bundles(self):
        live = LiveTelemetry(incident_config(max_incidents=2))
        tracer = RecordingTracer(live=live)
        for i in range(5):
            tracer.emit(SLO_BREACH, 0.1 * (i + 1), -1)
        assert len(live.incidents) == 2
        assert live.suppressed == 3

    def test_ring_capacity_bounds_the_window(self):
        live = LiveTelemetry(incident_config(ring_capacity=8))
        tracer = RecordingTracer(live=live)
        feed_window(tracer, 0.0, n=50)
        tracer.emit(SLO_BREACH, 0.99, -1)
        assert live.incidents[0]["window"]["spans"] == 8

    def test_non_trigger_kinds_do_not_freeze(self):
        live = LiveTelemetry(incident_config())
        tracer = RecordingTracer(live=live)
        tracer.emit(TASK_FAILED, 0.5, 7, model=1, reason="crash")
        assert live.incidents == []

    def test_custom_trigger_subset_disarms_the_rest(self):
        live = LiveTelemetry(incident_config(triggers=(WORKER_DOWN,)))
        tracer = RecordingTracer(live=live)
        tracer.emit(SLO_BREACH, 0.4, -1)
        tracer.emit(WORKER_DOWN, 0.5, -1, worker=1, until=2.0)
        assert len(live.incidents) == 1
        assert live.incidents[0]["trigger"]["kind"] == WORKER_DOWN

    def test_watchdog_anomaly_freezes_through_the_plane(self):
        live = LiveTelemetry(LiveConfig(
            cadence=1.0, baseline_windows=2, anomaly_min_events=5,
            anomaly_latency_factor=2.0, incident_cooldown=0.0,
        ))
        tracer = RecordingTracer(live=live)
        for w in range(2):
            feed_window(tracer, float(w), n=10, latency=0.01)
        feed_window(tracer, 2.0, n=10, latency=0.08)
        tracer.finalize(3.0)
        assert any(s.kind == ANOMALY for s in tracer.spans)
        kinds = [b["trigger"]["kind"] for b in live.incidents]
        assert ANOMALY in kinds


class TestStorageModeParity:
    def _run(self, keep_spans):
        live = LiveTelemetry(incident_config())
        tracer = RecordingTracer(keep_spans=keep_spans, live=live)
        feed_window(tracer, 0.0, n=6)
        tracer.emit(REJECT, 0.8, 77)
        tracer.emit(SLO_BREACH, 0.9, -1, burn=3.0)
        feed_window(tracer, 1.0, n=4)
        tracer.emit(WORKER_DOWN, 1.8, -1, worker=2, until=2.5)
        tracer.finalize(2.0)
        return live

    def test_modes_selected_by_keep_spans(self):
        assert self._run(True).recorder._span_list is not None
        assert self._run(False).recorder._span_list is None

    def test_bundles_identical_across_modes(self):
        kept = self._run(True)
        deque_mode = self._run(False)
        assert len(kept.incidents) == len(deque_mode.incidents) == 2
        for a, b in zip(kept.incidents, deque_mode.incidents):
            assert incident_fingerprint(a) == incident_fingerprint(b)

    def test_snapshots_identical_across_modes(self):
        kept = [s.to_dict() for s in self._run(True).snapshots]
        deq = [s.to_dict() for s in self._run(False).snapshots]
        assert kept == deq

    def test_same_feed_gives_identical_fingerprints(self):
        a = self._run(True)
        b = self._run(True)
        for x, y in zip(a.incidents, b.incidents):
            assert incident_fingerprint(x) == incident_fingerprint(y)

    def _watchdog_run(self, keep_spans):
        live = LiveTelemetry(LiveConfig(
            cadence=1.0, baseline_windows=2, anomaly_min_events=5,
            anomaly_latency_factor=2.0, incident_cooldown=0.0,
        ))
        tracer = RecordingTracer(keep_spans=keep_spans, live=live)
        for w in range(2):
            feed_window(tracer, float(w), n=10, latency=0.01)
        feed_window(tracer, 2.0, n=10, latency=0.08)
        # The first span of window 3 crosses boundary 3.0, whose
        # watchdog verdict freezes an anomaly bundle.
        feed_window(tracer, 3.0, n=10, latency=0.01)
        tracer.finalize(4.0)
        return live

    def test_watchdog_bundles_identical_across_modes(self):
        kept = self._watchdog_run(True)
        deque_mode = self._watchdog_run(False)
        assert [b["trigger"]["kind"] for b in kept.incidents] == [ANOMALY]
        assert len(deque_mode.incidents) == 1
        bundle = kept.incidents[0]
        assert bundle["window"]["end"] == 3.0
        assert bundle["spans"][-1]["time"] < 3.0
        assert incident_fingerprint(bundle) == incident_fingerprint(
            deque_mode.incidents[0]
        )

    def test_watchdog_snapshots_identical_across_modes(self):
        kept = [s.to_dict() for s in self._watchdog_run(True).snapshots]
        deq = [s.to_dict() for s in self._watchdog_run(False).snapshots]
        assert len(kept) == 4
        assert kept == deq


class TestServedWindowsEndAtTheirBoundary:
    """A served burst under a span-keeping live tracer: the span that
    crosses a boundary is stored after the flush it causes."""

    LATENCIES = [0.010, 0.022, 0.045]

    def _serve(self, seed):
        rng = np.random.default_rng(seed)
        arrivals = np.sort(np.concatenate([
            rng.uniform(0.0, 10.0, 300),   # calm baseline, 30 q/s
            rng.uniform(6.0, 7.0, 300),    # a 10x burst
        ]))
        n = arrivals.size
        quality = rng.uniform(0.3, 1.0, size=(16, 8))
        quality[:, 0] = 0.0
        workload = ServingWorkload(
            arrivals=arrivals,
            deadlines=np.full(n, 0.08),
            sample_indices=rng.integers(16, size=n),
            quality=quality,
        )
        utilities = np.ones((16, 8))
        utilities[:, 0] = 0.0
        policy = BufferedSchedulingPolicy(
            "schemble", DPScheduler(delta=0.05), utilities
        )
        live = LiveTelemetry(LiveConfig(cadence=1.0))
        tracer = RecordingTracer(live=live)
        EnsembleServer(self.LATENCIES, policy, tracer=tracer).run(workload)
        return live, tracer

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bundles_end_at_their_trigger(self, seed):
        live, _ = self._serve(seed)
        assert any(b["trigger"]["kind"] == ANOMALY for b in live.incidents)
        for bundle in live.incidents:
            assert bundle["spans"][-1]["time"] <= bundle["trigger"]["time"]
            assert bundle["window"]["end"] == bundle["trigger"]["time"]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_kept_spans_stay_in_time_order_around_snapshots(self, seed):
        _, tracer = self._serve(seed)
        spans = tracer.spans
        snapshots = [i for i, s in enumerate(spans) if s.kind == SNAPSHOT]
        assert snapshots
        for i in snapshots:
            if i > 0:
                assert spans[i - 1].time <= spans[i].time
            if i + 1 < len(spans):
                assert spans[i].time <= spans[i + 1].time


class TestBundleSerialization:
    def _bundle(self):
        live = LiveTelemetry(incident_config())
        tracer = RecordingTracer(live=live)
        feed_window(tracer, 0.0, n=5)
        tracer.emit(SLO_BREACH, 0.9, -1, burn=2.0)
        return live.incidents[0]

    def test_write_read_round_trip(self, tmp_path):
        bundle = self._bundle()
        path = write_incident_json(bundle, tmp_path / "incident_00.json")
        assert read_incident_json(path) == bundle

    def test_read_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "something/else"}')
        with pytest.raises(ValueError, match="incident bundle"):
            read_incident_json(path)

    def test_fingerprint_scrubs_wall_clock(self):
        bundle = self._bundle()
        import copy

        other = copy.deepcopy(bundle)
        other["spans"][0]["wall_s"] = 123.456  # host-dependent field
        assert incident_fingerprint(other) == incident_fingerprint(bundle)

    def test_fingerprint_sees_real_differences(self):
        bundle = self._bundle()
        import copy

        other = copy.deepcopy(bundle)
        other["trigger"]["time"] = 0.91
        assert incident_fingerprint(other) != incident_fingerprint(bundle)


class TestBinding:
    def test_rebinding_to_a_second_tracer_raises(self):
        live = LiveTelemetry()
        RecordingTracer(live=live)
        with pytest.raises(ValueError, match="already bound"):
            RecordingTracer(live=live)

    def test_latest_is_none_before_first_boundary(self):
        live = LiveTelemetry()
        RecordingTracer(live=live)
        assert live.latest is None

    def test_write_artifacts(self, tmp_path):
        live = LiveTelemetry(incident_config())
        tracer = RecordingTracer(live=live)
        feed_window(tracer, 0.0, n=5)
        tracer.emit(SLO_BREACH, 0.9, -1)
        tracer.finalize(1.0)
        written = live.write_artifacts(tmp_path, "run")
        assert written[0].name == "run_snapshots.jsonl"
        assert written[1].name == "run_incident_00.json"
        lines = written[0].read_text().splitlines()
        assert len(lines) == len(live.snapshots)
        assert read_incident_json(written[1]) == live.incidents[0]
