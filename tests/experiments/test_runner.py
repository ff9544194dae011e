"""Workload construction and run helpers."""

import dataclasses

import numpy as np
import pytest

from repro.data.traces import poisson_trace
from repro.experiments.runner import (
    RunSpec,
    make_workload,
    run_policy,
    run_spec,
    summarize,
)
from repro.fleet import FleetConfig, FleetResult


@pytest.fixture(scope="module")
def trace():
    return poisson_trace(rate=5.0, duration=10.0, seed=0)


class TestMakeWorkload:
    def test_constant_deadlines(self, tm_setup, trace):
        wl = make_workload(tm_setup, trace, deadline=0.2, seed=1)
        assert wl.n_queries == len(trace)
        np.testing.assert_allclose(wl.deadlines, 0.2)

    def test_camera_deadlines_for_vehicle_counting(self, vc_setup, trace):
        wl = make_workload(
            vc_setup, trace, deadline=0.2, deadline_spread=0.05, seed=1
        )
        cameras = np.asarray(vc_setup.pool.metadata["camera"])[
            wl.sample_indices
        ]
        # Same camera -> same deadline.
        for camera in np.unique(cameras)[:5]:
            values = wl.deadlines[cameras == camera]
            assert np.allclose(values, values[0])
        assert np.all((wl.deadlines >= 0.15) & (wl.deadlines <= 0.25))

    def test_uniform_spread_for_other_tasks(self, tm_setup, trace):
        wl = make_workload(
            tm_setup, trace, deadline=0.2, deadline_spread=0.05, seed=1
        )
        assert wl.deadlines.std() > 0

    def test_explicit_sample_indices(self, tm_setup, trace):
        indices = np.zeros(len(trace), dtype=int)
        wl = make_workload(
            tm_setup, trace, deadline=0.2, sample_indices=indices
        )
        np.testing.assert_array_equal(wl.sample_indices, 0)

    def test_sample_indices_length_checked(self, tm_setup, trace):
        with pytest.raises(ValueError, match="length"):
            make_workload(
                tm_setup, trace, deadline=0.2,
                sample_indices=np.zeros(3, dtype=int),
            )


class TestRunAndSummarize:
    def test_summary_keys(self, tm_setup, trace):
        wl = make_workload(tm_setup, trace, deadline=0.3, seed=2)
        policy = tm_setup.policies()["original"]
        result = run_policy(tm_setup, policy, wl, policy_name="original")
        stats = summarize(result, tm_setup)
        expected = {
            "accuracy", "processed_accuracy", "dmr",
            "latency_mean", "latency_p50", "latency_p95", "latency_p99",
            "latency_max", "slack_mean", "scheduler_invocations",
            "scheduler_wall_time", "degraded_rate", "retries",
        }
        assert set(stats) == expected
        assert 0.0 <= stats["dmr"] <= 1.0
        assert 0.0 <= stats["accuracy"] <= 1.0
        assert stats["latency_p50"] <= stats["latency_p99"] <= stats["latency_max"]
        assert stats["scheduler_wall_time"] >= 0.0

    def test_run_spec_end_to_end(self, tm_setup):
        spec = RunSpec(policy="original", duration=5.0, seed=3)
        result = run_spec(tm_setup, spec)
        assert len(result) > 0
        assert result.policy_name == "original"
        # Same spec, same output: the spec pins every seed.
        again = run_spec(tm_setup, spec)
        assert result.records == again.records

    def test_run_spec_replace(self):
        spec = RunSpec()
        faster = spec.replace(duration=5.0)
        assert faster.duration == 5.0
        assert faster.policy == spec.policy
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.duration = 1.0

    def test_spec_accepts_fleet_config(self):
        spec = RunSpec(config=FleetConfig.uniform(3))
        assert spec.config.n_shards == 3
        assert spec.replace(seed=4).config is spec.config

    def test_spec_rejects_other_config_types(self):
        # One validation path: RunSpec only type-checks, the config
        # classes validate their own contents.
        with pytest.raises(TypeError, match="ServerConfig or FleetConfig"):
            RunSpec(config={"max_buffer": 4})
        with pytest.raises(TypeError, match="ServerConfig or FleetConfig"):
            RunSpec().replace(config=None)

    def test_run_spec_dispatches_to_fleet(self, tm_setup):
        spec = RunSpec(
            policy="schemble",
            config=FleetConfig.uniform(2, queue_limit=128),
            duration=5.0,
            seed=3,
        )
        result = run_spec(tm_setup, spec)
        assert isinstance(result, FleetResult)
        assert result.n_shards == 2
        assert "@fleet[" in result.merged.policy_name
        again = run_spec(tm_setup, spec)
        assert result.merged.records == again.merged.records
        assert (result.assignments == again.assignments).all()

    def test_fleet_spec_rejects_explain(self, tm_setup):
        from repro.obs import DecisionLog

        spec = RunSpec(config=FleetConfig.uniform(2), duration=2.0)
        with pytest.raises(ValueError, match="explain"):
            run_spec(tm_setup, spec, explain=DecisionLog())

    def test_static_gets_replica_workers(self, tm_setup, trace):
        wl = make_workload(tm_setup, trace, deadline=0.3, seed=2)
        result = run_policy(
            tm_setup, tm_setup.static_plan.policy, wl, policy_name="static"
        )
        executed = result.executed_model_counts(tm_setup.n_models)
        for k in range(tm_setup.n_models):
            if not (tm_setup.static_plan.mask >> k) & 1:
                assert executed[k] == 0


class TestSchedulerOverride:
    def test_spec_validates_scheduler_name(self):
        with pytest.raises(ValueError, match="scheduler"):
            RunSpec(scheduler="greedy")

    def test_learned_requires_policy_model(self):
        with pytest.raises(ValueError, match="policy_model"):
            RunSpec(scheduler="learned")

    def test_none_returns_setup_policy_unchanged(self, tm_setup):
        from repro.experiments.runner import resolve_policy

        policy = resolve_policy(tm_setup, RunSpec())
        reference = tm_setup.policies()["schemble"]
        assert policy.name == reference.name
        assert type(policy.scheduler) is type(reference.scheduler)
        np.testing.assert_array_equal(
            policy.utilities, reference.utilities
        )

    def test_dp_override_clones_policy(self, tm_setup):
        from repro.experiments.runner import resolve_policy
        from repro.scheduling.dp import DPScheduler

        original = tm_setup.policies()["schemble"]
        policy = resolve_policy(tm_setup, RunSpec(scheduler="dp"))
        assert policy is not original
        assert isinstance(policy.scheduler, DPScheduler)
        assert policy.scheduler is not original.scheduler
        np.testing.assert_array_equal(policy.utilities, original.utilities)

    def test_immediate_policy_rejects_override(self, tm_setup):
        from repro.experiments.runner import resolve_policy

        with pytest.raises(ValueError, match="buffered"):
            resolve_policy(
                tm_setup, RunSpec(policy="original", scheduler="dp")
            )

    def test_learned_threshold_zero_reproduces_dp_run(
        self, tm_setup, tmp_path
    ):
        # The acceptance criterion: regret_threshold=0 must serve the
        # same trace bit-identically to the exact DP, work units
        # included.
        from repro.obs.explain import DecisionLog
        from repro.scheduling.distill import distill_policy

        log = DecisionLog()
        dp_spec = RunSpec(
            policy="schemble", scheduler="dp", duration=8.0, seed=5
        )
        dp_result = run_spec(tm_setup, dp_spec, explain=log)
        model = distill_policy(
            log, tm_setup.latencies, tm_setup.schemble.utilities, seed=0
        )
        path = model.save(tmp_path / "policy.json")
        learned = run_spec(tm_setup, dp_spec.replace(
            scheduler="learned",
            policy_model=str(path),
            regret_threshold=0.0,
        ))

        def key(r):
            return (r.query_id, r.sample_index, r.scheduled_mask,
                    r.executed_mask, r.completion, r.rejected)

        assert [key(r) for r in learned.records] == [
            key(r) for r in dp_result.records
        ]
        assert (learned.scheduler_work_units
                == dp_result.scheduler_work_units)
