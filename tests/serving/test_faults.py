"""Fault injection end-to-end: identity, determinism, degradation,
retries, crash failover, and fault observability."""

import numpy as np
import pytest

from repro.faults import DowntimeWindow, FaultPlan
from repro.obs import RecordingTracer, chrome_trace_events, render_report
from repro.obs import spans as sp
from repro.obs.spans import spans_of_kind
from repro.scheduling.dp import DPScheduler
from repro.serving.config import ServerConfig
from repro.serving.policies import BufferedSchedulingPolicy, ImmediateMaskPolicy
from repro.serving.server import EnsembleServer, WorkerSpec
from repro.serving.workload import ServingWorkload

pytestmark = pytest.mark.faults


def quality_table(n_pool, m, values=1.0):
    q = np.full((n_pool, 1 << m), float(values))
    q[:, 0] = 0.0
    return q


def workload(arrivals, deadline, m=2, n_pool=4, quality=None):
    arrivals = np.asarray(arrivals, dtype=float)
    n = arrivals.shape[0]
    return ServingWorkload(
        arrivals=arrivals,
        deadlines=np.full(n, deadline),
        sample_indices=np.zeros(n, dtype=int),
        quality=quality if quality is not None else quality_table(n_pool, m),
    )


def random_workload(seed=0, n=200, m=2, n_pool=4):
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0, 5, n))
    quality = np.zeros((n_pool, 1 << m))
    quality[:, 1:] = rng.uniform(0.3, 1.0, (n_pool, (1 << m) - 1))
    return ServingWorkload(
        arrivals=arrivals,
        deadlines=arrivals + rng.uniform(0.2, 0.6, n),
        sample_indices=rng.integers(0, n_pool, n),
        quality=quality,
    )


def buffered_policy(n_pool=4, m=2):
    utilities = np.zeros((n_pool, 1 << m))
    for mask in range(1, 1 << m):
        utilities[:, mask] = 0.6 + 0.1 * bin(mask).count("1")
    return BufferedSchedulingPolicy("schemble", DPScheduler(delta=0.01), utilities)


LAT = [0.05, 0.12]
NO_OVERHEAD = dict(overhead_base=0.0, overhead_per_unit=0.0)


class TestNullPlanIdentity:
    """A null FaultPlan must not perturb serving output in any way."""

    @pytest.mark.parametrize("make_policy", [
        lambda: ImmediateMaskPolicy("p", 0b11),
        buffered_policy,
    ], ids=["immediate", "buffered"])
    def test_null_plan_records_identical(self, make_policy):
        wl = random_workload()
        plain = EnsembleServer.from_config(
            LAT, make_policy(), ServerConfig(**NO_OVERHEAD)
        ).run(wl)
        nulled = EnsembleServer.from_config(
            LAT, make_policy(),
            ServerConfig(faults=FaultPlan(), **NO_OVERHEAD),
        ).run(wl)
        assert plain.records == nulled.records

    @pytest.mark.parametrize("make_policy", [
        lambda: ImmediateMaskPolicy("p", 0b11),
        buffered_policy,
    ], ids=["immediate", "buffered"])
    def test_fault_path_without_faults_is_identical(self, make_policy):
        # A watchdog no execution can hit never fires: the records
        # must still match the plain run event for event.
        wl = random_workload(seed=1)
        plain = EnsembleServer.from_config(
            LAT, make_policy(), ServerConfig(**NO_OVERHEAD)
        ).run(wl)
        faulty = EnsembleServer.from_config(
            LAT, make_policy(),
            ServerConfig(task_timeout=1e6, **NO_OVERHEAD),
        ).run(wl)
        assert plain.records == faulty.records


class TestDeterminism:
    def config(self):
        plan = FaultPlan(
            seed=11, latency_jitter=0.1, straggler_prob=0.05,
            task_failure_rate=0.1,
        ).with_random_crashes(
            n_workers=2, duration=5.0, crash_rate=0.2,
            mean_downtime=0.5, seed=12,
        )
        return ServerConfig(
            faults=plan, task_timeout=0.5, max_retries=1,
            retry_backoff=0.01, **NO_OVERHEAD,
        )

    def run_once(self):
        tracer = RecordingTracer()
        result = EnsembleServer.from_config(
            LAT, ImmediateMaskPolicy("p", 0b11), self.config(),
            tracer=tracer,
        ).run(random_workload(seed=2))
        return result, tracer

    def test_same_seed_same_records_and_report(self):
        result_a, tracer_a = self.run_once()
        result_b, tracer_b = self.run_once()
        assert result_a.records == result_b.records
        report_a = render_report(result_a, tracer_a, duration=5.0)
        report_b = render_report(result_b, tracer_b, duration=5.0)
        assert report_a == report_b

    def test_different_fault_seed_changes_outcome(self):
        base = self.run_once()[0]
        plan = self.config().faults
        other_cfg = self.config().replace(
            faults=FaultPlan(
                seed=999, latency_jitter=plan.latency_jitter,
                straggler_prob=plan.straggler_prob,
                task_failure_rate=plan.task_failure_rate,
                downtime=plan.downtime,
            )
        )
        other = EnsembleServer.from_config(
            LAT, ImmediateMaskPolicy("p", 0b11), other_cfg,
        ).run(random_workload(seed=2))
        assert base.records != other.records


class TestTimeoutDegradation:
    """latencies [0.05, 0.3] with a 0.1s watchdog: the slow model is
    abandoned deterministically and the query degrades to {model 0}."""

    def run_mode(self, degraded_answers):
        config = ServerConfig(
            task_timeout=0.1, max_retries=0,
            degraded_answers=degraded_answers, **NO_OVERHEAD,
        )
        server = EnsembleServer.from_config(
            [0.05, 0.3], ImmediateMaskPolicy("p", 0b11), config
        )
        return server.run(workload([0.0], deadline=10.0)).records[0]

    def test_degraded_answer(self):
        record = self.run_mode(degraded_answers=True)
        assert record.degraded
        assert record.executed_mask == 0b01
        assert record.failed_mask == 0b10
        assert record.completion == pytest.approx(0.1)
        assert record.latency == pytest.approx(0.1)
        assert not record.missed
        assert not record.rejected

    def test_drop_mode_rejects(self):
        record = self.run_mode(degraded_answers=False)
        assert record.rejected
        assert record.latency is None
        assert record.missed
        assert not record.degraded

    def test_degraded_scores_subset_quality(self):
        quality = np.zeros((1, 4))
        quality[0] = [0.0, 0.4, 0.6, 0.9]
        config = ServerConfig(task_timeout=0.1, max_retries=0, **NO_OVERHEAD)
        result = EnsembleServer.from_config(
            [0.05, 0.3], ImmediateMaskPolicy("p", 0b11), config
        ).run(workload([0.0], deadline=10.0, n_pool=1, quality=quality))
        # Degraded answer earns the quality of the executed subset
        # {model 0}, not 0 (drop) and not the full-mask 0.9.
        assert result.accuracy(quality) == pytest.approx(0.4)


class TestRetries:
    def test_bounded_retries_with_backoff(self):
        config = ServerConfig(
            faults=FaultPlan(task_failure_rate=1.0),
            max_retries=2, retry_backoff=0.05, **NO_OVERHEAD,
        )
        tracer = RecordingTracer()
        result = EnsembleServer.from_config(
            [0.1], ImmediateMaskPolicy("p", 0b1), config, tracer=tracer
        ).run(workload([0.0], deadline=10.0, m=1))
        record = result.records[0]
        assert record.retries == 2
        assert record.rejected  # nothing executed -> cannot degrade
        assert result.total_retries() == 2

        dispatches = spans_of_kind(tracer.spans, sp.DISPATCH)
        assert [d.attrs["attempt"] for d in dispatches] == [0, 1, 2]
        # attempt k fails at 0.1 + k*0.15, redispatches 0.05 later
        np.testing.assert_allclose(
            [d.time for d in dispatches], [0.0, 0.15, 0.30]
        )
        retries = spans_of_kind(tracer.spans, sp.RETRY)
        assert [r.attrs["reason"] for r in retries] == ["failure"] * 2
        failures = spans_of_kind(tracer.spans, sp.TASK_FAILED)
        assert [f.attrs["reason"] for f in failures] == ["fault"] * 3
        assert tracer.metrics.counter("tasks.failed.fault").value == 3
        assert tracer.metrics.counter("tasks.retried").value == 2

    def test_infeasible_retry_not_attempted(self):
        # Deadline too tight for another attempt: fail permanently
        # instead of wasting worker time (allow_rejection on).
        config = ServerConfig(
            faults=FaultPlan(task_failure_rate=1.0),
            max_retries=5, retry_backoff=0.05, **NO_OVERHEAD,
        )
        result = EnsembleServer.from_config(
            [0.1], ImmediateMaskPolicy("p", 0b1), config
        ).run(workload([0.0], deadline=0.12, m=1))
        assert result.records[0].retries == 0
        assert result.records[0].rejected


class TestCrashFailover:
    def run_crash(self, deadline=10.0, arrivals=(0.0, 0.0)):
        plan = FaultPlan(downtime=(DowntimeWindow(0, 0.05, 1.0),))
        config = ServerConfig(faults=plan, max_retries=1, **NO_OVERHEAD)
        workers = [WorkerSpec(0, 0.1), WorkerSpec(0, 0.1)]
        tracer = RecordingTracer()
        result = EnsembleServer.from_config(
            [0.1], ImmediateMaskPolicy("p", 0b1), config,
            workers=workers, tracer=tracer,
        ).run(workload(list(arrivals), deadline=deadline, m=1))
        return result, tracer

    def test_killed_task_fails_over_to_sibling(self):
        result, tracer = self.run_crash()
        assert all(r.completion is not None for r in result.records)
        assert not any(r.rejected for r in result.records)
        assert result.total_retries() >= 1
        crashes = spans_of_kind(tracer.spans, sp.TASK_FAILED)
        assert any(f.attrs["reason"] == "crash" for f in crashes)
        # Every post-crash dispatch lands on the surviving worker.
        late = [
            d for d in spans_of_kind(tracer.spans, sp.DISPATCH)
            if d.time >= 0.05 and d.time < 1.0
        ]
        assert late and all(d.attrs["worker"] == 1 for d in late)

    def test_down_up_spans_and_downtime_metric(self):
        _, tracer = self.run_crash()
        downs = spans_of_kind(tracer.spans, sp.WORKER_DOWN)
        ups = spans_of_kind(tracer.spans, sp.WORKER_UP)
        assert len(downs) == 1 and downs[0].attrs["worker"] == 0
        assert downs[0].attrs["until"] == pytest.approx(1.0)
        assert len(ups) == 1 and ups[0].attrs["worker"] == 0
        assert tracer.worker_downtime[0] == pytest.approx(0.95)
        assert tracer.metrics.counter("workers.crashes").value == 1

    def test_windows_ending_together_restart_once(self):
        # Both queries queue on the downed worker; the two windows end
        # together, and the second recovery must not start a second
        # task beside the first.
        plan = FaultPlan(downtime=(
            DowntimeWindow(0, 0.5, 2.0), DowntimeWindow(0, 1.0, 2.0),
        ))
        config = ServerConfig(faults=plan, **NO_OVERHEAD)
        result = EnsembleServer.from_config(
            [0.1], ImmediateMaskPolicy("p", 0b1), config
        ).run(workload([0.6, 0.6], deadline=10.0, m=1))
        np.testing.assert_allclose(
            [r.completion for r in result.records], [2.1, 2.2]
        )

    def test_chrome_trace_has_down_box(self):
        _, tracer = self.run_crash()
        events = chrome_trace_events(tracer.spans)
        down = [e for e in events if e.get("name") == "DOWN"]
        assert len(down) == 1
        assert down[0]["ph"] == "X"
        assert down[0]["cat"] == "fault"
        assert down[0]["dur"] == pytest.approx(0.95 * 1e6)


class TestFaultReport:
    def test_report_has_fault_section(self):
        plan = FaultPlan(
            seed=3, task_failure_rate=0.3,
            downtime=(DowntimeWindow(0, 1.0, 2.0),),
        )
        config = ServerConfig(faults=plan, max_retries=1, **NO_OVERHEAD)
        tracer = RecordingTracer()
        result = EnsembleServer.from_config(
            LAT, ImmediateMaskPolicy("p", 0b11), config, tracer=tracer
        ).run(random_workload(seed=4))
        report = render_report(result, tracer, duration=5.0)
        assert "fault injection & degraded mode:" in report
        assert "task failures" in report
        assert "worker downtime" in report

    def test_fault_free_report_has_no_fault_section(self):
        tracer = RecordingTracer()
        result = EnsembleServer.from_config(
            LAT, ImmediateMaskPolicy("p", 0b11),
            ServerConfig(**NO_OVERHEAD), tracer=tracer,
        ).run(random_workload(seed=4))
        report = render_report(result, tracer, duration=5.0)
        assert "fault injection" not in report
