"""The fleet comparison harness: single server, every router, controlled."""

import pytest

from repro.experiments.fleet import (
    default_control_config,
    fleet_workload,
    make_fleet_policy,
    run_fleet_comparison,
    synthetic_fleet_setup,
)
from repro.fleet import FleetConfig, FleetServer
from repro.fleet.routers import ROUTERS
from repro.obs import RecordingTracer

N_SHARDS = 2
QUEUE_LIMIT = 8

ROW_KEYS = {
    "accuracy", "dmr", "p50", "p95", "p99", "rejected", "shed_rate",
    "degraded_rate", "scheduler_invocations",
}
CONTROL_KEYS = {
    "scale_ups", "scale_downs", "degrades", "restores",
    "admission_changes", "episodes",
}


def _control():
    # Short windows so the controller breaches, scales and unwinds
    # within an eight-second day.
    return default_control_config(
        interval=0.5, warmup=0.5, cooldown=1.0, alert_window=2.0
    )


@pytest.fixture(scope="module")
def day():
    latencies, quality, scores = synthetic_fleet_setup(n_pool=128, seed=0)
    policy = make_fleet_policy(quality, scores)
    workload = fleet_workload(
        quality, base_rate=20.0, duration=8.0, deadline=0.05, seed=1
    )
    return latencies, policy, workload, quality


def _compare(day, **kwargs):
    latencies, policy, workload, quality = day
    return run_fleet_comparison(
        latencies, policy, workload, quality,
        n_shards=N_SHARDS, queue_limit=QUEUE_LIMIT, seed=0, **kwargs,
    )


@pytest.fixture(scope="module")
def controlled(day):
    return _compare(day, control=_control())


class TestRows:
    def test_union_schema(self, controlled):
        rows, _ = controlled
        assert list(rows) == ["single", *ROUTERS, "controlled"]
        for name in ("single", *ROUTERS):
            assert set(rows[name]) == ROW_KEYS
        assert set(rows["controlled"]) == ROW_KEYS | CONTROL_KEYS

    @pytest.mark.parametrize("router", sorted(ROUTERS))
    def test_router_row_matches_direct_run(self, day, controlled, router):
        latencies, policy, workload, quality = day
        rows, _ = controlled
        result = FleetServer.from_config(
            latencies, policy,
            FleetConfig.uniform(
                N_SHARDS, router=router, queue_limit=QUEUE_LIMIT, seed=0
            ),
        ).run(workload)
        merged = result.merged
        stats = merged.latency_stats()
        assert rows[router] == {
            "accuracy": merged.accuracy(quality),
            "dmr": merged.deadline_miss_rate(),
            "p50": stats["p50"],
            "p95": stats["p95"],
            "p99": stats["p99"],
            "rejected": float(merged.n_rejected()),
            "shed_rate": result.shed_rate(),
            "degraded_rate": merged.degraded_rate(),
            "scheduler_invocations": float(merged.scheduler_invocations),
        }

    def test_controlled_counts_match_log(self, controlled):
        rows, observed = controlled
        counts = observed.control_log.counts()
        row = rows["controlled"]
        assert row["scale_ups"] == counts.get("scale_up", 0) >= 1
        assert row["scale_downs"] == counts.get("scale_down", 0)
        assert row["degrades"] == counts.get("degrade", 0) >= 1
        assert row["restores"] == counts.get("restore", 0)
        assert row["admission_changes"] == counts.get("admission_change", 0)
        assert row["episodes"] == len(observed.monitor.episodes) >= 1
        assert row["degraded_rate"] > 0.0


class TestObservedFleet:
    @pytest.mark.parametrize("router", sorted(ROUTERS))
    def test_tracing_leaves_rows_unchanged(self, day, router):
        untraced, _ = _compare(day, router=router)
        tracer = RecordingTracer()
        traced, observed = _compare(day, router=router, tracer=tracer)
        assert traced == untraced
        assert list(traced) == ["single", *ROUTERS]
        # Without control the static router fleet is the observed run:
        # its spans are the ones traced.
        assert observed.router == router
        assert observed.control_log is None
        assert observed.shard_spans is not None
        assert tracer.spans

    def test_controlled_run_is_observed(self, day, controlled):
        rows, observed = controlled
        tracer = RecordingTracer()
        traced, traced_observed = _compare(
            day, control=_control(), tracer=tracer
        )
        assert traced == rows
        assert traced_observed.control_log.dumps() == (
            observed.control_log.dumps()
        )
        kinds = {span.kind for span in tracer.spans}
        assert "scale_up" in kinds and "degrade" in kinds
