"""Tests of the live telemetry plane (``repro.obs.live``).

Covers the snapshot stream (cadence windows, delta encoding, digest
checkpoints, fleet rollup), the anomaly watchdog, the flight recorder
under both ``keep_spans`` settings (one store, the tracer's rows,
trimmed only when spans are not kept), incident freezing (triggers,
cooldown, caps), windows that end at their boundary in a served run,
bundle serialization, and the determinism contract
(:func:`incident_fingerprint`).
"""

import copy
import math
import sys
import threading

import numpy as np
import pytest

from repro.data.traces import diurnal_trace
from repro.faults import FaultPlan
from repro.obs.digest import QuantileDigest
from repro.obs.live import (
    INCIDENT_SCHEMA,
    META_KINDS,
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
from repro.obs.metrics import StreamingHistogram
from repro.obs.tracer import RecordingTracer
from repro.scheduling.dp import DPScheduler
from repro.serving.config import ServerConfig
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


def eager_rollup_digests(snapshots):
    """The oracle: a rollup's digests as the merge at the boundary
    computed them, one ``from_dict`` per part, merged in part order."""
    parts = {}
    for snap in snapshots:
        for name, state in snap.digests.items():
            parts.setdefault(name, []).append(QuantileDigest.from_dict(state))
    digests = {}
    for name, (first, *rest) in parts.items():
        first.merge(*rest)
        digests[name] = first.to_dict()
    return digests


class TestRollupMergedOnRead:
    """A rollup keeps its parts and merges their digests when read."""

    def _parts(self, extra):
        planes = []
        for n in (40, 70):
            live = LiveTelemetry(LiveConfig(cadence=1.0))
            tracer = RecordingTracer(live=live, compression=8)
            feed_window(tracer, 0.0, n=n, latency=0.01 + 0.001 * n)
            planes.append((tracer, live))
        parts = [live.cut(1.0) for _, live in planes]
        rollup = TelemetrySnapshot.rollup(parts)
        for tracer, _ in planes:  # the sources move on
            for i in range(extra):
                complete(tracer, 1.5, 5000 + i, latency=0.5 + i)
            tracer.finalize(3.0)
        return parts, rollup

    def test_read_later_equals_the_eager_merge(self):
        eager_parts, _ = self._parts(extra=0)
        expected = eager_rollup_digests(eager_parts)
        _, rollup = self._parts(extra=300)
        assert rollup.digests == expected
        assert rollup.to_dict()["digests"] == expected

    def test_parts_read_later_serialize_as_cut(self):
        before, _ = self._parts(extra=0)
        after, _ = self._parts(extra=300)
        assert [p.digests for p in after] == [p.digests for p in before]


class TestRacingFirstReads:
    """Readers on other threads (the console, ``/snapshot``) read a
    snapshot's digests while the run goes on: every read of a cut must
    see the digests as they were at the cut."""

    def test_threads_read_the_cut_while_the_run_moves_on(self):
        live = LiveTelemetry(LiveConfig(cadence=1e9))
        tracer = RecordingTracer(live=live, compression=8)
        histogram = tracer.metrics.get("query.latency_s")
        rng = np.random.default_rng(0)
        cuts, expected = [], []
        for i in range(120):
            for _ in range(int(rng.integers(1, 40))):
                complete(tracer, 0.5, i, latency=float(rng.exponential()))
            cuts.append(live.cut(0.5))
            expected.append(
                copy.deepcopy(histogram._digest).to_dict()
            )
        seen = [[] for _ in cuts]

        def read():
            for i, snap in enumerate(cuts):
                seen[i].append(snap.digests["query.latency_s"])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=read) for _ in range(4)]
            for reader in readers:
                reader.start()
            for i in range(3000):  # the run keeps filling and swapping
                complete(tracer, 0.6, 10_000 + i, latency=0.1 * (i % 7))
            for reader in readers:
                reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        for want, got in zip(expected, seen):
            assert got == [want] * 4


def served(seed, live):
    """A DP-scheduled diurnal day on one server, spans kept; latency
    jitter keeps the latencies free of ties."""
    trace = diurnal_trace(90.0, 40.0, seed=seed)
    rng = np.random.default_rng(seed + 1)
    quality = rng.uniform(0.3, 1.0, size=(64, 8))
    quality[:, 0] = 0.0
    workload = ServingWorkload(
        arrivals=trace.arrivals,
        deadlines=np.full(len(trace), 0.08),
        sample_indices=rng.integers(64, size=len(trace)),
        quality=quality,
    )
    utilities = np.ones((64, 8))
    utilities[:, 0] = 0.0
    policy = BufferedSchedulingPolicy(
        "schemble", DPScheduler(delta=0.05), utilities
    )
    tracer = RecordingTracer(
        live=LiveTelemetry(LiveConfig(cadence=1.0)) if live else None
    )
    config = ServerConfig(faults=FaultPlan(seed=seed, latency_jitter=0.1))
    EnsembleServer.from_config(
        [0.010, 0.022, 0.045], policy, config, tracer=tracer
    ).run(workload)
    return tracer


def histogram_checkpoints(tracer):
    """Every registry histogram's serialized digest, wall clock aside."""
    registry = tracer.metrics
    return {
        name: registry.get(name).checkpoint()
        for name in registry.names()
        if isinstance(registry.get(name), StreamingHistogram)
        and "wall" not in name
    }


def rank_error(values, estimate, q):
    """Distance from q to the estimate's rank range (ties span one)."""
    low = np.searchsorted(values, estimate, "left") / values.size
    high = np.searchsorted(values, estimate, "right") / values.size
    return max(low - q, q - high, 0.0)


class TestPlaneWatchesNeverSteers:
    """Snapshots checkpoint histograms by reference, so a boundary never
    compresses the registry's digests."""

    @pytest.mark.parametrize("seed", [3, 5])
    def test_registry_histograms_equal_a_run_without_the_plane(self, seed):
        watched = served(seed, live=True)
        assert len(watched.live.snapshots) >= 30
        assert watched.metrics.get("query.latency_s").count > 2048
        assert histogram_checkpoints(watched) == histogram_checkpoints(
            served(seed, live=False)
        )

    @pytest.mark.parametrize("seed", [3, 5])
    def test_snapshot_quantiles_rank_within_one_percent(self, seed):
        # Each snapshot serializes a copy of the registry digests, which
        # no boundary compressed: its p50/p95/p99 must keep the digest's
        # rank bound (test_digest.py) against the exact latencies up to
        # its boundary, give or take the one rank step a stream of n
        # values resolves.
        tracer = served(seed, live=True)
        snapshots = list(tracer.live.snapshots)
        latencies = []
        checked = 0
        for span in tracer.spans:
            if span.kind == COMPLETE:
                latencies.append(span.attrs["latency"])
            elif span.kind == SNAPSHOT and latencies:
                snap = snapshots[span.attrs["seq"]]
                exact = np.sort(latencies)
                for q in (0.5, 0.95, 0.99):
                    estimate = snap.quantile("query.latency_s", q)
                    assert rank_error(exact, estimate, q) <= (
                        0.01 + 1.0 / exact.size
                    ), (snap.seq, q)
                checked += 1
        assert checked == len(snapshots)


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
    """The two ``keep_spans`` settings share one store, the tracer's
    rows, and differ only in whether boundaries trim them: both freeze
    the same bundles and cut the same snapshots. A small ring makes the
    unkept rows trim, and a trigger opening each window reaches back
    across its boundary, whichever boundaries trimmed."""

    CAP = 8
    #: Non-meta spans :meth:`_run` emits: six windows of six arrival +
    #: complete pairs, five ``worker_down`` and a reject and a breach.
    N_SPANS = 6 * 12 + 5 + 2

    def _run(self, keep_spans, after_window=None):
        live = LiveTelemetry(incident_config(ring_capacity=self.CAP))
        tracer = RecordingTracer(keep_spans=keep_spans, live=live)
        for w in range(6):
            if w > 0:
                tracer.emit(
                    WORKER_DOWN, w + 0.01, -1, worker=w, until=w + 0.5
                )
            feed_window(tracer, float(w), n=6)
            if w == 2:
                tracer.emit(REJECT, 2.8, 77)
                tracer.emit(SLO_BREACH, 2.9, -1, burn=3.0)
            if after_window is not None:
                after_window(live.recorder, float(w))
        tracer.finalize(6.0)
        return live

    def test_unkept_rows_trim_and_kept_rows_hold_every_span(self):
        sizes = []

        def after_window(recorder, start):
            in_window = sum(1 for row in recorder.rows if row[1] >= start)
            sizes.append((len(recorder.rows), in_window))

        unkept = self._run(False, after_window).recorder
        assert len(sizes) == 6
        for n_rows, in_window in sizes:
            assert n_rows <= 3 * self.CAP + in_window
        assert unkept.base > 0  # the boundaries trimmed
        kept = self._run(True).recorder
        assert kept.base == 0
        assert sum(row[0] not in META_KINDS for row in kept.rows) == (
            self.N_SPANS
        )
        assert kept.rows[unkept.base:] == unkept.rows

    def test_bundles_identical_across_modes(self):
        kept = self._run(True)
        unkept = self._run(False)
        assert len(kept.incidents) == len(unkept.incidents) == 6
        for a, b in zip(kept.incidents, unkept.incidents):
            assert a["window"]["spans"] == self.CAP
            assert incident_fingerprint(a) == incident_fingerprint(b)
        downs = [
            a for a in kept.incidents if a["trigger"]["kind"] == WORKER_DOWN
        ]
        assert len(downs) == 5
        for bundle in downs:
            start = math.floor(bundle["trigger"]["time"])
            assert bundle["spans"][0]["time"] < start

    def test_snapshots_identical_across_modes(self):
        kept = [s.to_dict() for s in self._run(True).snapshots]
        unkept = [s.to_dict() for s in self._run(False).snapshots]
        assert len(kept) == 6
        assert kept == unkept

    def test_same_feed_gives_identical_fingerprints(self):
        a = self._run(True)
        b = self._run(True)
        for x, y in zip(a.incidents, b.incidents):
            assert incident_fingerprint(x) == incident_fingerprint(y)

    def _watchdog_run(self, keep_spans):
        live = LiveTelemetry(LiveConfig(
            cadence=1.0, ring_capacity=self.CAP, baseline_windows=2,
            anomaly_min_events=5, anomaly_latency_factor=2.0,
            incident_cooldown=0.0,
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
        unkept = self._watchdog_run(False)
        assert [b["trigger"]["kind"] for b in kept.incidents] == [ANOMALY]
        assert len(unkept.incidents) == 1
        assert unkept.recorder.base > 0
        bundle = kept.incidents[0]
        assert bundle["window"]["end"] == 3.0
        assert bundle["window"]["spans"] == self.CAP
        assert bundle["spans"][-1]["time"] < 3.0
        assert incident_fingerprint(bundle) == incident_fingerprint(
            unkept.incidents[0]
        )

    def test_watchdog_snapshots_identical_across_modes(self):
        kept = [s.to_dict() for s in self._watchdog_run(True).snapshots]
        unkept = [s.to_dict() for s in self._watchdog_run(False).snapshots]
        assert len(kept) == 4
        assert kept == unkept


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
