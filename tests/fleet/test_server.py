"""FleetServer: shard isolation, merging, determinism, observability."""

from collections import defaultdict

import numpy as np
import pytest

from repro.control import ControlConfig
from repro.fleet import FleetConfig, FleetServer
from repro.obs import spans as sp
from repro.obs.slo import SLOConfig
from repro.obs.tracer import RecordingTracer
from repro.scheduling.greedy import GreedyScheduler
from repro.serving.config import ServerConfig
from repro.serving.policies import BufferedSchedulingPolicy
from repro.serving.server import EnsembleServer
from repro.serving.workload import ServingWorkload

LATENCIES = [0.004, 0.009, 0.018]
ROUTER_NAMES = ("hash", "power_of_two", "score_aware")


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


def make_workload(quality, n=400, rate=220.0, deadline=0.06, seed=1):
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0, n / rate, n))
    return ServingWorkload(
        arrivals=arrivals,
        deadlines=np.full(n, deadline),
        sample_indices=rng.integers(quality.shape[0], size=n),
        quality=quality,
    )


def run_fleet(router, *, tracer=None, n=400, queue_limit=24, seed=0,
              n_shards=3):
    policy, quality = make_policy()
    workload = make_workload(quality, n=n)
    fleet = FleetServer.from_config(
        LATENCIES, policy,
        FleetConfig.uniform(
            n_shards, ServerConfig(), router=router,
            queue_limit=queue_limit, seed=seed,
        ),
        tracer=tracer,
    )
    return fleet.run(workload), workload, quality


class TestBasics:
    def test_from_config_mirrors_server_pattern(self):
        policy, _ = make_policy()
        config = FleetConfig.uniform(2, ServerConfig(max_buffer=4))
        fleet = FleetServer.from_config(LATENCIES, policy, config)
        assert fleet.config is config
        assert fleet.n_shards == 2

    def test_rejects_non_fleet_config(self):
        policy, _ = make_policy()
        with pytest.raises(TypeError, match="FleetConfig"):
            FleetServer(LATENCIES, policy, ServerConfig())

    def test_rejects_model_mismatch(self):
        policy, quality = make_policy()
        fleet = FleetServer(LATENCIES[:2] + [0.1, 0.2], policy)
        with pytest.raises(ValueError, match="models"):
            fleet.run(make_workload(quality, n=10))

    def test_per_shard_policies_length_checked(self):
        policy, _ = make_policy()
        with pytest.raises(ValueError, match="per shard"):
            FleetServer(
                LATENCIES, policy, FleetConfig.uniform(3),
                policies=[policy],
            )

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_every_query_routed_or_shed(self, router):
        result, workload, _ = run_fleet(router)
        n = workload.n_queries
        assert result.assignments.shape == (n,)
        routed = int((result.assignments >= 0).sum())
        assert routed + result.n_shed == n
        assert sum(len(ids) for ids in result.shard_query_ids) == routed
        # Disjoint, exhaustive shard partitions of the routed queries.
        all_ids = np.concatenate(result.shard_query_ids)
        assert len(np.unique(all_ids)) == routed

    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_merged_records_global_order(self, router):
        result, workload, _ = run_fleet(router)
        assert len(result.merged.records) == workload.n_queries
        for qid, record in enumerate(result.merged.records):
            assert record.query_id == qid
        # Shed queries surface as rejected records.
        for qid in np.flatnonzero(result.assignments < 0):
            assert result.merged.records[qid].rejected

    def test_merged_policy_name_carries_router_and_size(self):
        result, _, _ = run_fleet("hash")
        assert result.merged.policy_name == "schemble@fleet[hashx3]"

    def test_scheduler_stats_summed(self):
        result, _, _ = run_fleet("power_of_two")
        assert result.merged.scheduler_invocations == sum(
            r.scheduler_invocations for r in result.shard_results
        )
        assert result.merged.scheduler_work_units == sum(
            r.scheduler_work_units for r in result.shard_results
        )


class TestDeterminism:
    @pytest.mark.parametrize("router", ROUTER_NAMES)
    def test_same_seed_same_run(self, router):
        # Byte-identical shard assignments and fleet ServingResults.
        # scheduler_wall_time is real perf_counter time, so it is the
        # one field deliberately excluded.
        first, _, _ = run_fleet(router, seed=11)
        second, _, _ = run_fleet(router, seed=11)
        assert (first.assignments == second.assignments).all()
        assert first.n_shed == second.n_shed
        assert first.merged.records == second.merged.records
        assert (
            first.merged.scheduler_invocations
            == second.merged.scheduler_invocations
        )
        assert (
            first.merged.scheduler_work_units
            == second.merged.scheduler_work_units
        )
        for a, b in zip(first.shard_results, second.shard_results):
            assert a.records == b.records

    def test_router_seed_changes_placement(self):
        first, _, _ = run_fleet("power_of_two", seed=0)
        second, _, _ = run_fleet("power_of_two", seed=1)
        assert (first.assignments != second.assignments).any()


class TestObservability:
    def test_route_spans_and_counters(self):
        tracer = RecordingTracer()
        result, workload, _ = run_fleet("score_aware", tracer=tracer)
        routes = [s for s in tracer.spans if s.kind == sp.ROUTE]
        sheds = [s for s in tracer.spans if s.kind == sp.SHED]
        n = workload.n_queries
        assert len(routes) == n - result.n_shed
        assert len(sheds) == result.n_shed
        metrics = tracer.metrics
        assert metrics.counter("router.routed").value == len(routes)
        assert metrics.counter("admission.admitted").value == len(routes)
        assert metrics.counter("admission.shed").value == len(sheds)
        per_shard = sum(
            metrics.counter(f"router.shard.{i}").value for i in range(3)
        )
        assert per_shard == len(routes)

    def test_every_shard_span_tagged_and_remapped(self):
        tracer = RecordingTracer()
        result, workload, _ = run_fleet("hash", tracer=tracer)
        n_workers = len(LATENCIES)
        for shard, spans in enumerate(result.shard_spans):
            for span in spans:
                assert span.attrs["shard"] == shard
                if "worker" in span.attrs:
                    wid = span.attrs["worker"]
                    assert shard * n_workers <= wid < (shard + 1) * n_workers
                if span.query_id >= 0:
                    assert result.assignments[span.query_id] == shard

    def test_merged_stream_time_ordered(self):
        tracer = RecordingTracer()
        run_fleet("power_of_two", tracer=tracer)
        times = [span.time for span in tracer.spans]
        assert times == sorted(times)

    def test_shed_emits_reject_for_slo(self):
        tracer = RecordingTracer()
        result, _, _ = run_fleet(
            "hash", tracer=tracer, queue_limit=2, n=600
        )
        assert result.n_shed > 0
        shed_rejects = [
            s for s in tracer.spans
            if s.kind == sp.REJECT and s.attrs.get("reason") == "shed"
        ]
        assert len(shed_rejects) == result.n_shed
        assert tracer.metrics.counter("queries.rejected").value >= \
            result.n_shed

    def test_untraced_run_keeps_no_spans(self):
        result, _, _ = run_fleet("hash")
        assert result.shard_spans is None
        assert result.merged.metrics is None


# Kinds only the control side stream emits: monitor edges and decisions.
CONTROL_STREAM = (
    sp.SLO_BREACH, sp.SLO_RECOVERED, sp.SCALE_UP, sp.SCALE_DOWN,
    sp.DEGRADE_MODE, sp.RESTORE, sp.ADMISSION_CHANGE,
)

# Epochs of 0.25 s land on the arrivals' 10 ms grid, so decisions tie
# with shard spans at epoch boundaries.
TIE_CONTROL = ControlConfig(
    interval=0.25, warmup=0.25, max_extra_replicas=2, scale_up_burn=2.0,
    scale_down_burn=0.5, cooldown=0.5,
    slo=SLOConfig(
        windows=(1.0, 2.0), alert_window=1.0,
        breach_burn=2.0, recover_burn=1.0, min_events=20,
    ),
)


def stream_of(span, n_shards):
    """The merged stream a fleet span came from: -1 for the front end
    (a route, or a shed and its reject, which carry no shard tag), the
    shard's index, or ``n_shards`` for the control side stream."""
    if span.kind in CONTROL_STREAM:
        return n_shards
    if span.kind == sp.ROUTE or "shard" not in span.attrs:
        return -1
    return span.attrs["shard"]


class TestMergeOrder:
    """The merged stream is ordered on (time, stream) — front end, then
    shards 0..n-1, then control — and keeps each stream's own order, so
    same-instant spans from different streams never swap."""

    @pytest.mark.parametrize(
        "control", [None, TIE_CONTROL], ids=["static", "controlled"]
    )
    def test_ties_keep_stream_order(self, control):
        policy, quality = make_policy()
        rng = np.random.default_rng(1)
        n, n_shards = 1500, 3
        rate = np.where(
            (np.arange(n) >= 300) & (np.arange(n) < 1300), 900.0, 100.0
        )
        workload = ServingWorkload(
            # A burst on a 10 ms grid: many arrivals share an instant.
            arrivals=np.round(np.cumsum(rng.exponential(1.0 / rate)), 2),
            deadlines=np.full(n, 0.06),
            sample_indices=rng.integers(quality.shape[0], size=n),
            quality=quality,
        )
        tracer = RecordingTracer()
        result = FleetServer.from_config(
            LATENCIES, policy,
            FleetConfig.uniform(
                n_shards, ServerConfig(), router="hash", queue_limit=6,
                seed=0, control=control,
            ),
            tracer=tracer,
        ).run(workload)
        spans = tracer.spans
        keys = [(s.time, stream_of(s, n_shards)) for s in spans]
        assert keys == sorted(keys)
        streams_at = defaultdict(set)
        for t, stream in keys:
            streams_at[t].add(stream)
        assert any(
            len(streams - {-1, n_shards}) >= 2
            for streams in streams_at.values()
        )

        def plain(stream):
            return [(s.kind, s.time, s.query_id, s.attrs) for s in stream]

        for shard in range(n_shards):
            assert plain(
                s for s in spans if stream_of(s, n_shards) == shard
            ) == plain(result.shard_spans[shard])
        front = []
        for qid, shard in enumerate(result.assignments):
            t = float(workload.arrivals[qid])
            front += (
                [(sp.SHED, t, qid), (sp.REJECT, t, qid)] if shard < 0
                else [(sp.ROUTE, t, qid)]
            )
        assert [
            (s.kind, s.time, s.query_id) for s in spans
            if stream_of(s, n_shards) == -1
        ] == front
        decisions = [
            (s.kind, s.time) for s in spans
            if stream_of(s, n_shards) == n_shards
            and s.kind not in (sp.SLO_BREACH, sp.SLO_RECOVERED)
        ]
        if control is None:
            assert not any(s.kind in CONTROL_STREAM for s in spans)
        else:
            assert decisions  # the controller acted
            assert decisions == [
                (a.kind, a.time) for a in result.control_log
            ]
            # A control span shares an epoch boundary with shard spans.
            assert any(
                n_shards in streams and len(streams - {-1, n_shards})
                for streams in streams_at.values()
            )


class TestAgainstSingleServer:
    def test_shards_run_the_same_event_loop(self):
        # A 1-shard fleet with a pass-through router must reproduce the
        # single server's records exactly — the shard event loop is
        # untouched, only fronted.
        policy, quality = make_policy()
        workload = make_workload(quality, n=200)
        single = EnsembleServer.from_config(
            LATENCIES, policy, ServerConfig()
        ).run(workload)
        fleet = FleetServer.from_config(
            LATENCIES, policy,
            FleetConfig.uniform(1, ServerConfig(), queue_limit=10 ** 6),
        ).run(workload)
        assert fleet.n_shed == 0
        assert [
            (r.completion, r.rejected, r.executed_mask)
            for r in fleet.merged.records
        ] == [
            (r.completion, r.rejected, r.executed_mask)
            for r in single.records
        ]


class TestRedirectTieBreak:
    """The admission fallback redirect must not funnel ties to shard 0.

    Regression: ``np.argmin(backlogs)`` always picked the lowest index
    among equally-loaded shards, so under a symmetric backlog every
    redirect landed on shard 0. The rotating seeded pointer spreads
    them while staying byte-deterministic per (trace, seed).
    """

    def make_fleet(self, n_shards=4, seed=0, queue_limit=2):
        policy, quality = make_policy()
        fleet = FleetServer.from_config(
            LATENCIES, policy,
            FleetConfig.uniform(
                n_shards, ServerConfig(), router="hash",
                queue_limit=queue_limit, seed=seed,
            ),
        )
        return fleet, quality

    def test_rotates_over_symmetric_backlogs(self):
        fleet, _ = self.make_fleet(n_shards=4, seed=0)
        targets = [fleet._redirect_target([3, 3, 3, 3]) for _ in range(8)]
        assert targets == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_rotation_starts_at_seed(self):
        fleet, _ = self.make_fleet(n_shards=4, seed=6)
        assert fleet._redirect_target([1, 1, 1, 1]) == 2

    def test_still_picks_the_least_loaded(self):
        fleet, _ = self.make_fleet(n_shards=4)
        assert fleet._redirect_target([5, 2, 7, 2]) == 1
        # Pointer advanced past 1: the next symmetric tie goes to 2.
        assert fleet._redirect_target([4, 4, 4, 4]) == 2

    def test_balanced_targets_under_symmetric_trace(self):
        # Every query lands at the same instant with equal cost, so
        # backlogs stay symmetric and every over-limit query exercises
        # the tie-break. Redirects must spread across shards.
        policy, quality = make_policy()
        n, n_shards = 120, 4
        workload = ServingWorkload(
            arrivals=np.zeros(n),
            deadlines=np.full(n, 10.0),
            sample_indices=np.zeros(n, dtype=int),
            quality=quality,
        )
        tracer = RecordingTracer()
        fleet = FleetServer.from_config(
            LATENCIES, policy,
            FleetConfig.uniform(
                n_shards, ServerConfig(), router="hash",
                queue_limit=8, seed=0,
            ),
            tracer=tracer,
        )
        fleet.run(workload)
        redirected = [
            s.attrs["shard"] for s in tracer.spans
            if s.kind == sp.ROUTE and s.attrs.get("redirected")
        ]
        assert redirected, "symmetric trace produced no redirects"
        counts = {
            shard: redirected.count(shard) for shard in set(redirected)
        }
        # The hash-routed home shard is the full one, so it can never
        # be a redirect target; all other shards share the redirects
        # evenly (argmin sent every one of them to the lowest index).
        assert len(counts) >= n_shards - 1
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_redirect_rotation_is_deterministic(self):
        policy, quality = make_policy()
        workload = make_workload(quality, n=300, rate=500.0)

        def targets():
            tracer = RecordingTracer()
            fleet = FleetServer.from_config(
                LATENCIES, policy,
                FleetConfig.uniform(
                    3, ServerConfig(), router="power_of_two",
                    queue_limit=4, seed=2,
                ),
                tracer=tracer,
            )
            fleet.run(workload)
            return [
                (s.query_id, s.attrs["shard"]) for s in tracer.spans
                if s.kind == sp.ROUTE and s.attrs.get("redirected")
            ]

        first = targets()
        assert first == targets()
