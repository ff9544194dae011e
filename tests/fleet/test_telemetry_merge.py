"""Merged fleet telemetry against a replay oracle.

A traced fleet folds each stream once, where it is born, and merges the
results. The oracle rebuilds what a replay would give: it k-way merges
the front-end, per-shard and control spans of a run that keeps spans
(a stable sort on time over front end, shards 0..n-1, control), replays
the merged stream through a fresh live-plane tracer, and checks every
output the merge must reproduce byte for byte. Histograms are checked
against the exact values instead: a merged digest is not byte-equal to
one fed in global order.
"""

import json
from operator import attrgetter

import numpy as np
import pytest

from repro.control import ControlConfig
from repro.faults import DowntimeWindow, FaultPlan
from repro.fleet import FleetConfig, FleetServer
from repro.obs import spans as sp
from repro.obs.live import LiveConfig, LiveTelemetry, incident_fingerprint
from repro.obs.metrics import Counter, Gauge, StreamingHistogram
from repro.obs.slo import SLOConfig, SLOMonitor
from repro.obs.tracer import RecordingTracer
from repro.scheduling.greedy import GreedyScheduler
from repro.serving.config import ServerConfig
from repro.serving.policies import BufferedSchedulingPolicy
from repro.serving.workload import ServingWorkload

LATENCIES = [0.004, 0.009, 0.018]
N_SHARDS = 3

CONTROL_KINDS = (
    sp.SLO_BREACH, sp.SLO_RECOVERED, sp.SCALE_UP, sp.SCALE_DOWN,
    sp.DEGRADE_MODE, sp.RESTORE, sp.ADMISSION_CHANGE,
)

# Epochs of 0.25 s land on the arrivals' 10 ms grid, so spans of every
# stream tie at the stops.
CONTROL = ControlConfig(
    interval=0.25, warmup=0.25, max_extra_replicas=2, scale_up_burn=2.0,
    scale_down_burn=0.5, cooldown=0.5,
    slo=SLOConfig(
        windows=(1.0, 2.0), alert_window=1.0,
        breach_burn=2.0, recover_burn=1.0, min_events=20,
    ),
)

FAULTY = ServerConfig(
    faults=FaultPlan(
        seed=5, task_failure_rate=0.02, latency_jitter=0.2,
        downtime=(
            DowntimeWindow(0, 0.61, 0.9), DowntimeWindow(1, 1.3, 1.5),
            DowntimeWindow(0, 2.27, 2.6),
        ),
    ),
    task_timeout=0.02, max_retries=1, retry_backoff=0.001,
)


# An slo monitor on the fleet tracer itself: its alert window tells its
# spans from the control monitor's.
FLEET_SLO = SLOConfig(
    windows=(0.25,), alert_window=0.25, breach_burn=2.0, recover_burn=1.0,
    min_events=3,
)


def live_config(cadence):
    """A small ring that evicts, and a watchdog that fires often."""
    return LiveConfig(
        cadence=cadence, ring_capacity=32, baseline_windows=2,
        anomaly_min_events=5, anomaly_latency_factor=1.5,
        anomaly_miss_factor=1.5, anomaly_miss_floor=0.05,
        incident_cooldown=0.3, max_incidents=20,
    )


def make_policy(n_pool=64, seed=0):
    rng = np.random.default_rng(seed)
    m = len(LATENCIES)
    difficulty = rng.uniform(0, 1, n_pool)
    success = np.clip(
        np.linspace(0.7, 0.9, m)[None, :] - 0.5 * difficulty[:, None],
        0.05, 0.98,
    )
    quality = np.zeros((n_pool, 2 ** m))
    for mask in range(1, 2 ** m):
        members = [k for k in range(m) if (mask >> k) & 1]
        quality[:, mask] = 1 - np.prod(1 - success[:, members], axis=1)
    scores = np.clip(difficulty + rng.normal(0, 0.05, n_pool), 0, 1)
    return BufferedSchedulingPolicy(
        "schemble", GreedyScheduler(order="edf"), quality,
        scores=scores, fast_path=True,
    ), quality


def grid_workload(quality, n=1000):
    """A burst on a 10 ms grid: many arrivals share an instant."""
    rng = np.random.default_rng(1)
    rate = np.where(
        (np.arange(n) >= n // 5) & (np.arange(n) < 4 * n // 5), 900.0, 100.0
    )
    return ServingWorkload(
        arrivals=np.round(np.cumsum(rng.exponential(1.0 / rate)), 2),
        deadlines=np.full(n, 0.06),
        sample_indices=rng.integers(quality.shape[0], size=n),
        quality=quality,
    )


def run(router, control, shard, cadence, slo, keep_spans):
    policy, quality = make_policy()
    live = LiveTelemetry(live_config(cadence), source="fleet")
    tracer = RecordingTracer(
        keep_spans=keep_spans, live=live,
        slo=SLOMonitor(FLEET_SLO) if slo else None,
    )
    result = FleetServer.from_config(
        LATENCIES, policy,
        FleetConfig.uniform(
            N_SHARDS, shard, router=router, queue_limit=6, seed=0,
            control=control,
        ),
        tracer=tracer,
    ).run(grid_workload(quality))
    return result, tracer


def replay(result, tracer, cadence):
    """The oracle: the merged source streams replayed through a fresh
    live-plane tracer, as a fleet that re-folds every span would."""
    front = [
        s for s in tracer.spans
        if s.kind in (sp.ROUTE, sp.SHED)
        or (s.kind == sp.REJECT and s.attrs.get("reason") == "shed")
    ]
    control = [
        s for s in tracer.spans
        if s.kind in CONTROL_KINDS
        and s.attrs.get("window") != FLEET_SLO.alert_window
    ]
    merged = front + [s for spans in result.shard_spans for s in spans]
    merged += control
    merged.sort(key=attrgetter("time"))
    oracle = RecordingTracer(
        live=LiveTelemetry(live_config(cadence), source="fleet"),
        slo=SLOMonitor(FLEET_SLO) if tracer.slo is not None else None,
    )
    if result.control_log is not None:
        oracle.live.attach_control_log(result.control_log)
    for span in merged:
        oracle.emit(span.kind, span.time, span.query_id, **span.attrs)
    oracle.finalize(tracer.end_time)
    return oracle


def metrics_of(registry, kind):
    return {
        name: registry.get(name) for name in registry.names()
        if isinstance(registry.get(name), kind)
    }


def no_wall(mapping):
    return {k: v for k, v in mapping.items() if "wall" not in k}


def bundle_core(bundle):
    scrubbed = json.loads(incident_fingerprint(bundle))
    return {
        key: scrubbed[key]
        for key in (
            "trigger", "seq", "window", "spans", "blame", "control",
            "totals",
        )
    }


def exact_values(spans, name):
    """The observations a histogram folded, from the span stream."""
    kind, attr = {
        "query.latency_s": (sp.COMPLETE, "latency"),
        "deadline.slack_s": (sp.COMPLETE, "slack"),
        "scheduler.batch_size": (sp.SCHEDULE, "batch"),
        "scheduler.overhead_sim_s": (sp.SCHEDULE, "overhead_sim_s"),
        "plan.size": (sp.PLAN, "size"),
    }[name]
    return np.sort([float(s.attrs[attr]) for s in spans if s.kind == kind])


def rank_error(values, estimate, q):
    """Distance from q to the estimate's rank range (ties span one)."""
    low = np.searchsorted(values, estimate, "left") / values.size
    high = np.searchsorted(values, estimate, "right") / values.size
    return max(low - q, q - high, 0.0)


# (router, control, shard config, snapshot cadence, fleet slo monitor)
CASES = [
    ("hash", None, ServerConfig(), 0.25, False),
    ("power_of_two", None, FAULTY, 0.4, True),
    ("score_aware", None, ServerConfig(), 0.4, False),
    ("hash", CONTROL, FAULTY, 0.25, False),
    ("power_of_two", CONTROL, ServerConfig(), 0.25, False),
    ("score_aware", CONTROL, FAULTY, 0.4, True),
]
IDS = [
    f"{router}-{'controlled' if control else 'static'}-"
    f"{'faulty' if shard is FAULTY else 'clean'}-cadence{cadence}"
    + ("-slo" if slo else "")
    for router, control, shard, cadence, slo in CASES
]


@pytest.fixture(scope="module", params=CASES, ids=IDS)
def runs(request):
    kept, kept_tracer = run(*request.param, True)
    lean, lean_tracer = run(*request.param, False)
    oracle = replay(kept, kept_tracer, request.param[3])
    faulty = request.param[2] is FAULTY
    return kept, kept_tracer, lean, lean_tracer, oracle, faulty


class TestAgainstReplay:
    def test_spans_byte_identical(self, runs):
        _, tracer, _, _, oracle, _ = runs
        assert [s.to_dict() for s in tracer.spans] == [
            s.to_dict() for s in oracle.spans
        ]

    def test_counters_gauges_and_worker_maps(self, runs):
        _, tracer, _, _, oracle, _ = runs
        ours, theirs = tracer.metrics, oracle.metrics
        assert {
            name: c.value for name, c in metrics_of(ours, Counter).items()
        } == {
            name: c.value for name, c in metrics_of(theirs, Counter).items()
        }
        assert {
            name: g.as_arrays()[0].tolist() + g.as_arrays()[1].tolist()
            for name, g in metrics_of(ours, Gauge).items()
        } == {
            name: g.as_arrays()[0].tolist() + g.as_arrays()[1].tolist()
            for name, g in metrics_of(theirs, Gauge).items()
        }
        assert tracer.worker_busy == oracle.worker_busy
        assert tracer.worker_model == oracle.worker_model
        assert tracer.worker_downtime == oracle.worker_downtime
        assert tracer.end_time == oracle.end_time

    def test_histograms_within_digest_bound(self, runs):
        _, tracer, _, _, oracle, _ = runs
        ours = metrics_of(tracer.metrics, StreamingHistogram)
        theirs = metrics_of(oracle.metrics, StreamingHistogram)
        assert ours.keys() == theirs.keys()
        for name, hist in ours.items():
            other = theirs[name]
            assert (hist.count, hist.min, hist.max) == (
                other.count, other.min, other.max
            ), name
            assert hist.total == pytest.approx(other.total, rel=1e-12)
        # Rank error against the exact observations. The k2 scale lets
        # a centroid opening at the median reach odds exp(Z/delta) ~
        # 1.23 at a few hundred observations, ~10% of the mass, so an
        # estimate may sit half that from p50 — the replayed digest
        # itself misses it by up to ~3 points here. The tails are
        # held to 1 point.
        for name in ("query.latency_s", "deadline.slack_s"):
            values = exact_values(oracle.spans, name)
            for q, bound in ((0.5, 0.05), (0.95, 0.01), (0.99, 0.01)):
                estimate = ours[name].quantile(q)
                assert rank_error(values, estimate, q) <= bound, (name, q)

    def test_snapshots(self, runs):
        _, tracer, _, _, oracle, _ = runs

        def core(live):
            return [
                (s.seq, s.time, no_wall(s.counters), no_wall(s.totals))
                for s in live.snapshots
            ]

        assert core(tracer.live) == core(oracle.live)

    def test_fleet_slo_monitor(self, runs):
        _, tracer, _, lean, oracle, _ = runs
        if tracer.slo is None:
            pytest.skip("no slo monitor on the fleet tracer")
        assert tracer.slo.episodes

        def summary(monitor):  # NaN-safe: compare the JSON
            return json.dumps(monitor.summary(), sort_keys=True)

        assert summary(tracer.slo) == summary(oracle.slo)
        assert summary(lean.slo) == summary(oracle.slo)

    def test_plane_counts_and_verdicts(self, runs):
        _, tracer, _, _, oracle, _ = runs
        ours, theirs = tracer.live, oracle.live
        assert len(ours.snapshots) == len(theirs.snapshots)
        assert len(ours.incidents) == len(theirs.incidents)
        assert ours.suppressed == theirs.suppressed
        assert (ours.watchdog.windows_closed, ours.watchdog.anomalies) == (
            theirs.watchdog.windows_closed, theirs.watchdog.anomalies
        )
        assert ours.watchdog.anomalies > 0

    def test_bundles(self, runs):
        _, tracer, _, _, oracle, faulty = runs
        ours = [bundle_core(b) for b in tracer.live.incidents]
        assert ours == [bundle_core(b) for b in oracle.live.incidents]
        kinds = {b["trigger"]["kind"] for b in ours}
        assert sp.ANOMALY in kinds
        if faulty:
            assert sp.WORKER_DOWN in kinds
        # The small ring evicts: windows are cut at its capacity.
        assert any(b["window"]["spans"] == 32 for b in ours)


class TestLeanEqualsKept:
    """A fleet that keeps no spans gives every other output unchanged."""

    def test_results(self, runs):
        kept, _, lean, _, _, _ = runs
        assert lean.shard_spans is None
        assert lean.merged.records == kept.merged.records
        assert (lean.assignments == kept.assignments).all()
        assert lean.n_shed == kept.n_shed
        if kept.control_log is not None:
            assert lean.control_log.dumps() == kept.control_log.dumps()
            assert lean.monitor.episodes == kept.monitor.episodes

    def test_telemetry(self, runs):
        _, kept, _, lean, _, _ = runs
        assert no_wall({
            name: c.value
            for name, c in metrics_of(lean.metrics, Counter).items()
        }) == no_wall({
            name: c.value
            for name, c in metrics_of(kept.metrics, Counter).items()
        })
        for name, hist in no_wall(
            metrics_of(lean.metrics, StreamingHistogram)
        ).items():
            assert hist.checkpoint() == kept.metrics.get(name).checkpoint()
        assert lean.worker_busy == kept.worker_busy

        def snaps(live):
            return [
                json.loads(json.dumps(s.to_dict(), default=str))
                for s in live.snapshots
            ]

        def scrub(snapshots):
            for snap in snapshots:
                for field in ("counters", "totals", "digests"):
                    snap[field] = no_wall(snap[field])
            return snapshots

        assert scrub(snaps(lean.live)) == scrub(snaps(kept.live))
        assert [incident_fingerprint(b) for b in lean.live.incidents] == [
            incident_fingerprint(b) for b in kept.live.incidents
        ]
