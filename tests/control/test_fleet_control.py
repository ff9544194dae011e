"""Controlled fleet: actuation end-to-end, equivalence, determinism."""

import numpy as np
import pytest

from repro.control import ControlConfig
from repro.faults import DowntimeWindow, FaultPlan
from repro.fleet import FleetConfig, FleetServer
from repro.obs import spans as sp
from repro.obs.export import metrics_to_prometheus
from repro.obs.slo import SLOConfig
from repro.obs.tracer import RecordingTracer
from repro.scheduling.greedy import GreedyScheduler
from repro.serving.config import ServerConfig
from repro.serving.policies import BufferedSchedulingPolicy
from repro.serving.workload import ServingWorkload

LATENCIES = [0.004, 0.009, 0.018]

CONTROL_KINDS = (
    sp.SCALE_UP, sp.SCALE_DOWN, sp.DEGRADE_MODE, sp.RESTORE,
    sp.ADMISSION_CHANGE,
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


def burst_workload(quality, seed=0, n=5000, calm=15.0, burst=400.0):
    """Calm 0-10 s, hard burst 10-30 s, calm tail: forces a breach."""
    rng = np.random.default_rng(seed)
    t, arrivals = 0.0, []
    while len(arrivals) < n:
        rate = burst if 10.0 <= t < 30.0 else calm
        t += rng.exponential(1.0 / rate)
        arrivals.append(t)
    arrivals = np.array(arrivals[:n])
    return ServingWorkload(
        arrivals=arrivals,
        deadlines=np.full(n, 0.08),
        sample_indices=rng.integers(quality.shape[0], size=n),
        quality=quality,
    )


def control_config(**overrides):
    base = dict(
        interval=1.0,
        warmup=2.0,
        max_extra_replicas=3,
        scale_up_burn=2.0,
        scale_down_burn=0.5,
        cooldown=5.0,
        slo=SLOConfig(
            windows=(10.0, 60.0), alert_window=10.0,
            breach_burn=2.0, recover_burn=1.0, min_events=20,
        ),
    )
    base.update(overrides)
    return ControlConfig(**base)


def run_fleet(workload, control, *, tracer=None, queue_limit=8,
              n_shards=2, seed=0, shard=ServerConfig()):
    policy, _ = make_policy()
    fleet = FleetServer.from_config(
        LATENCIES, policy,
        FleetConfig.uniform(
            n_shards, shard, queue_limit=queue_limit,
            seed=seed, control=control,
        ),
        tracer=tracer,
    )
    return fleet.run(workload)


@pytest.fixture(scope="module")
def burst_runs():
    _, quality = make_policy()
    workload = burst_workload(quality)
    tracer = RecordingTracer()
    static = run_fleet(workload, None)
    controlled = run_fleet(workload, control_config(), tracer=tracer)
    return static, controlled, tracer, workload


class TestActuation:
    def test_burst_opens_and_closes_an_episode(self, burst_runs):
        _, controlled, _, _ = burst_runs
        episodes = controlled.monitor.episodes
        assert len(episodes) >= 1
        assert all(not e.open for e in episodes)

    def test_controller_acted_and_unwound(self, burst_runs):
        _, controlled, _, _ = burst_runs
        counts = controlled.control_log.counts()
        assert counts.get(sp.SCALE_UP, 0) >= 1
        assert counts.get(sp.SCALE_UP) == counts.get(sp.SCALE_DOWN)
        assert counts.get(sp.DEGRADE_MODE) == counts.get(sp.RESTORE)
        assert counts.get(sp.ADMISSION_CHANGE, 0) % 2 == 0

    def test_degraded_answers_are_marked(self, burst_runs):
        _, controlled, _, _ = burst_runs
        degraded = [
            r for r in controlled.merged.records
            if getattr(r, "degraded", False)
        ]
        assert degraded
        # Degradation clamps to a subset, never rejects.
        assert all(r.completion is not None for r in degraded)

    def test_control_loop_beats_static_on_misses(self, burst_runs):
        static, controlled, _, _ = burst_runs
        assert (
            controlled.merged.deadline_miss_rate()
            < static.merged.deadline_miss_rate()
        )
        assert controlled.n_shed < static.n_shed

    def test_control_spans_in_merged_stream(self, burst_runs):
        _, controlled, tracer, _ = burst_runs
        kinds = {span.kind for span in tracer.spans}
        for kind in CONTROL_KINDS + (sp.SLO_BREACH, sp.SLO_RECOVERED):
            assert kind in kinds, kind

    def test_merged_stream_time_ordered(self, burst_runs):
        _, _, tracer, _ = burst_runs
        times = [span.time for span in tracer.spans]
        assert times == sorted(times)

    def test_admission_change_resolves_queue_limit(self, burst_runs):
        _, _, tracer, _ = burst_runs
        changes = [
            s for s in tracer.spans if s.kind == sp.ADMISSION_CHANGE
        ]
        tightened = [s for s in changes if s.attrs["tightened"]]
        relaxed = [s for s in changes if not s.attrs["tightened"]]
        assert tightened and relaxed
        # tighten_factor 0.5 over queue_limit 8.
        assert all(s.attrs["queue_limit"] == 4 for s in tightened)
        assert all(s.attrs["queue_limit"] == 8 for s in relaxed)

    def test_every_query_accounted(self, burst_runs):
        _, controlled, _, workload = burst_runs
        assert len(controlled.merged.records) == workload.n_queries
        assert all(
            r is not None and r.query_id == qid
            for qid, r in enumerate(controlled.merged.records)
        )


class TestDeterminism:
    def test_action_log_byte_identical(self, burst_runs):
        _, controlled, _, workload = burst_runs
        rerun = run_fleet(workload, control_config())
        assert rerun.control_log.dumps() == controlled.control_log.dumps()
        assert len(controlled.control_log) > 0

    def test_seed_changes_rotation(self):
        _, quality = make_policy()
        workload = burst_workload(quality)
        a = run_fleet(workload, control_config(seed=0), n_shards=3)
        b = run_fleet(workload, control_config(seed=1), n_shards=3)
        ups_a = [x.shard for x in a.control_log if x.kind == sp.SCALE_UP]
        ups_b = [x.shard for x in b.control_log if x.kind == sp.SCALE_UP]
        assert ups_a and ups_b
        assert ups_a[0] != ups_b[0]


def without_wall(spans):
    """Spans as comparable tuples, minus the host-time ``wall_s``."""
    return [
        (s.kind, s.time, s.query_id,
         {k: v for k, v in s.attrs.items() if k != "wall_s"})
        for s in spans
    ]


def prometheus_without_wall(registry):
    """Exposition lines, minus the host-time (wall-clock) series."""
    return [
        line for line in metrics_to_prometheus(registry).splitlines()
        if "wall" not in line
    ]


QUIET_FAULTS = ServerConfig(
    faults=FaultPlan(
        seed=5, task_failure_rate=0.02, latency_jitter=0.2,
        downtime=(DowntimeWindow(0, 7.0, 7.5),),
    ),
    task_timeout=0.02, max_retries=1, retry_backoff=0.001,
)


class TestQuietWorkloadEquivalence:
    """With no breach the controller never acts, and the controlled
    run must match the static run on everything observable: records,
    placements, the merged span stream, its metrics and the per-shard
    spans."""

    def check_quiet_run(self, shard):
        policy, quality = make_policy()
        rng = np.random.default_rng(3)
        n = 300
        workload = ServingWorkload(
            arrivals=np.sort(rng.uniform(0, 20.0, n)),
            deadlines=np.full(n, 0.2),
            sample_indices=rng.integers(quality.shape[0], size=n),
            quality=quality,
        )
        static_tracer, controlled_tracer = RecordingTracer(), RecordingTracer()
        static = run_fleet(
            workload, None, queue_limit=32, tracer=static_tracer,
            shard=shard,
        )
        controlled = run_fleet(
            workload, control_config(), queue_limit=32,
            tracer=controlled_tracer, shard=shard,
        )
        assert len(controlled.control_log) == 0
        assert controlled.monitor.episodes == []
        assert static.merged.records == controlled.merged.records
        np.testing.assert_array_equal(
            static.assignments, controlled.assignments
        )
        assert without_wall(static_tracer.spans) == without_wall(
            controlled_tracer.spans
        )
        assert prometheus_without_wall(
            static_tracer.metrics
        ) == prometheus_without_wall(controlled_tracer.metrics)
        assert [without_wall(s) for s in static.shard_spans] == [
            without_wall(s) for s in controlled.shard_spans
        ]

    def test_idle_controller_matches_static(self):
        self.check_quiet_run(ServerConfig())

    @pytest.mark.faults
    def test_idle_controller_matches_static_under_faults(self):
        self.check_quiet_run(QUIET_FAULTS)


CRASH_WINDOWS = ((10.73, 12.5), (20.61, 21.8))


def run_faulty_fleet(workload, traced=True):
    """The burst through shards that carry task failures, jitter past
    a watchdog, and crash windows on the fastest model's worker that
    overlap the controller's scale-ups at t=11 and t=21."""
    policy, _ = make_policy()
    plan = FaultPlan(
        seed=5, task_failure_rate=0.02, latency_jitter=0.2,
        downtime=tuple(
            DowntimeWindow(0, start, end) for start, end in CRASH_WINDOWS
        ),
    )
    shard = ServerConfig(
        faults=plan, task_timeout=0.02, max_retries=1, retry_backoff=0.001,
    )
    tracer = RecordingTracer() if traced else None
    result = FleetServer.from_config(
        LATENCIES, policy,
        FleetConfig.uniform(
            2, shard, queue_limit=8, seed=0, control=control_config(),
        ),
        tracer=tracer,
    ).run(workload)
    return result, tracer


@pytest.fixture(scope="module")
def faulty_run():
    _, quality = make_policy()
    workload = burst_workload(quality)
    result, tracer = run_faulty_fleet(workload)
    return result, tracer, workload


@pytest.mark.faults
class TestFaultyShards:
    def test_scale_ups_overlap_crash_windows(self, faulty_run):
        result, _, _ = faulty_run
        ups = [a.time for a in result.control_log if a.kind == sp.SCALE_UP]
        for start, end in CRASH_WINDOWS:
            assert any(start <= t < end for t in ups), (start, end, ups)

    def test_every_query_ends_exactly_once(self, faulty_run):
        result, tracer, workload = faulty_run
        ends = np.zeros(workload.n_queries, dtype=int)
        for span in tracer.spans:
            if span.kind in (sp.COMPLETE, sp.REJECT):
                ends[span.query_id] += 1
        assert (ends == 1).all()
        records = result.merged.records
        assert len(records) == workload.n_queries
        assert all(r.processed != r.rejected for r in records)

    def test_faults_reach_merged_spans(self, faulty_run):
        _, tracer, _ = faulty_run
        kinds = {s.kind for s in tracer.spans}
        assert sp.WORKER_DOWN in kinds
        reasons = {
            s.attrs["reason"] for s in tracer.spans
            if s.kind == sp.TASK_FAILED
        }
        assert "crash" in reasons

    def test_same_seed_reproduces_log_and_records(self, faulty_run):
        result, _, workload = faulty_run
        rerun, _ = run_faulty_fleet(workload)
        assert rerun.control_log.dumps() == result.control_log.dumps()
        assert rerun.merged.records == result.merged.records
        # Untraced, the shards record no spans: the monitor reads the
        # outcomes their sessions hand back, and steers the same way.
        untraced, _ = run_faulty_fleet(workload, traced=False)
        assert all(r.metrics is None for r in untraced.shard_results)
        assert untraced.control_log.dumps() == result.control_log.dumps()
        assert untraced.merged.records == result.merged.records


class TestGuards:
    def test_config_requires_control_config_type(self):
        with pytest.raises(TypeError):
            FleetConfig.uniform(2, ServerConfig(), control=object())
