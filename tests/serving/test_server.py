"""Discrete-event server: exact timing, rejection, replicas, buffering."""

import numpy as np
import pytest

from repro.obs import spans as sp
from repro.obs.tracer import RecordingTracer
from repro.scheduling.dp import DPScheduler
from repro.serving.config import ServerConfig
from repro.serving.policies import BufferedSchedulingPolicy, ImmediateMaskPolicy
from repro.serving.server import EnsembleServer, WorkerSpec
from repro.serving.workload import ServingWorkload


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


class TestImmediateTiming:
    def test_single_query_completion_time(self):
        server = EnsembleServer([0.1, 0.3], ImmediateMaskPolicy("p", 0b11))
        result = server.run(workload([1.0], deadline=1.0))
        assert result.records[0].completion == pytest.approx(1.3)
        assert result.records[0].executed_mask == 0b11

    def test_queue_blocking_is_serial_per_model(self):
        server = EnsembleServer([0.1], ImmediateMaskPolicy("p", 0b1))
        result = server.run(workload([0.0, 0.0, 0.0], deadline=1.0, m=1))
        completions = sorted(r.completion for r in result.records)
        np.testing.assert_allclose(completions, [0.1, 0.2, 0.3])

    def test_rejection_when_estimate_exceeds_deadline(self):
        server = EnsembleServer([0.1], ImmediateMaskPolicy("p", 0b1))
        result = server.run(workload([0.0, 0.0], deadline=0.15, m=1))
        outcomes = sorted(r.rejected for r in result.records)
        assert outcomes == [False, True]

    def test_forced_mode_processes_everything(self):
        server = EnsembleServer(
            [0.1], ImmediateMaskPolicy("p", 0b1),
            config=ServerConfig(allow_rejection=False),
        )
        result = server.run(workload([0.0, 0.0, 0.0], deadline=0.15, m=1))
        assert all(r.completion is not None for r in result.records)
        # Late queries still count as missed.
        assert result.deadline_miss_rate() == pytest.approx(2 / 3)

    def test_replicas_double_throughput(self):
        workers = [WorkerSpec(0, 0.1), WorkerSpec(0, 0.1)]
        server = EnsembleServer(
            [0.1], ImmediateMaskPolicy("p", 0b1), workers=workers
        )
        result = server.run(workload([0.0, 0.0], deadline=0.15, m=1))
        completions = sorted(r.completion for r in result.records)
        np.testing.assert_allclose(completions, [0.1, 0.1])

    def test_idle_gap_resets_queue(self):
        server = EnsembleServer([0.1], ImmediateMaskPolicy("p", 0b1))
        result = server.run(workload([0.0, 5.0], deadline=1.0, m=1))
        assert result.records[1].completion == pytest.approx(5.1)

    def test_queued_task_dispatch_span_at_start(self):
        # Query 1 commits at t=0.02 but waits behind query 0 on the one
        # worker: its dispatch span is emitted when it starts, at 0.1.
        tracer = RecordingTracer()
        server = EnsembleServer(
            [0.1], ImmediateMaskPolicy("p", 0b1), tracer=tracer
        )
        server.run(workload([0.0, 0.02], deadline=1.0, m=1))
        dispatches = [
            s for s in sp.spans_of_kind(tracer.spans, sp.DISPATCH)
            if s.query_id == 1
        ]
        assert len(dispatches) == 1
        span = dispatches[0]
        assert span.time == span.attrs["start"]
        assert span.time == pytest.approx(0.1)
        assert span.attrs["finish"] == pytest.approx(0.2)
        assert span.attrs["attempt"] == 0


class TestBufferedPolicy:
    def _policy(self, n_pool=4, m=2, entry_delay=0.0, utilities=None):
        if utilities is None:
            # Reward grows with subset size so the DP wants more models
            # whenever deadlines permit.
            utilities = np.zeros((n_pool, 1 << m))
            for mask in range(1, 1 << m):
                utilities[:, mask] = 0.6 + 0.1 * bin(mask).count("1")
        return BufferedSchedulingPolicy(
            "schemble",
            DPScheduler(delta=0.01),
            utilities,
            entry_delay=entry_delay,
        )

    @staticmethod
    def _server(latencies, policy, **knobs):
        knobs.setdefault("overhead_base", 0.0)
        knobs.setdefault("overhead_per_unit", 0.0)
        return EnsembleServer.from_config(
            latencies, policy, ServerConfig(**knobs)
        )

    def test_single_query_served(self):
        server = self._server([0.1, 0.2], self._policy())
        result = server.run(workload([0.0], deadline=1.0))
        record = result.records[0]
        assert record.completion == pytest.approx(0.2)
        assert record.executed_mask == 0b11

    def test_flat_utilities_choose_fastest_subset(self):
        flat = quality_table(4, 2, values=0.9)
        server = self._server([0.1, 0.2], self._policy(utilities=flat))
        result = server.run(workload([0.0], deadline=1.0))
        assert result.records[0].executed_mask == 0b01

    def test_entry_delay_shifts_start(self):
        server = self._server([0.1], self._policy(m=1, entry_delay=0.05))
        result = server.run(workload([0.0], deadline=1.0, m=1))
        assert result.records[0].completion == pytest.approx(0.15)

    def test_overhead_base_charged(self):
        server = self._server(
            [0.1], self._policy(m=1), overhead_base=0.02
        )
        result = server.run(workload([0.0], deadline=1.0, m=1))
        assert result.records[0].completion == pytest.approx(0.12)

    def test_contention_splits_models_between_queries(self):
        # Two arrivals, one fast + one slow model, tight deadline: the
        # DP should split instead of serialising full masks.
        utilities = np.zeros((4, 4))
        utilities[:, 1] = 0.8
        utilities[:, 2] = 0.85
        utilities[:, 3] = 0.9
        server = self._server([0.08, 0.09], self._policy(utilities=utilities))
        result = server.run(workload([0.0, 0.0], deadline=0.1))
        masks = sorted(r.executed_mask for r in result.records)
        assert masks == [1, 2]
        assert result.deadline_miss_rate() == 0.0

    def test_infeasible_query_rejected(self):
        server = self._server([0.2], self._policy(m=1))
        result = server.run(workload([0.0], deadline=0.1, m=1))
        assert result.records[0].rejected
        assert result.deadline_miss_rate() == 1.0

    def test_forced_mode_falls_back_to_fastest_model(self):
        server = self._server(
            [0.05, 0.2], self._policy(), allow_rejection=False
        )
        result = server.run(workload([0.0], deadline=0.01))
        record = result.records[0]
        assert record.completion is not None
        assert record.executed_mask == 0b01  # fastest model only

    def test_scheduler_stats_accumulate(self):
        server = self._server([0.1, 0.2], self._policy())
        result = server.run(workload([0.0, 0.3, 0.6], deadline=1.0))
        assert result.scheduler_invocations >= 1
        assert result.scheduler_work_units > 0

    def test_unserved_buffer_counts_missed(self):
        # Zero-capacity situation: deadline shorter than any model; the
        # scheduler rejects, so nothing hangs.
        server = self._server([0.5], self._policy(m=1))
        result = server.run(workload([0.0, 0.0], deadline=0.1, m=1))
        assert result.deadline_miss_rate() == 1.0


class TestServerValidation:
    def test_rejects_model_count_mismatch(self):
        server = EnsembleServer([0.1], ImmediateMaskPolicy("p", 1))
        with pytest.raises(ValueError, match="models"):
            server.run(workload([0.0], deadline=1.0, m=2))

    def test_rejects_bad_latencies(self):
        for latencies in (
            [0.0], [0.01, np.nan, 0.03], [0.01, np.inf, 0.03], [],
        ):
            with pytest.raises(ValueError, match="finite positives"):
                EnsembleServer(latencies, ImmediateMaskPolicy("p", 1))

    def test_rejects_unknown_worker_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            EnsembleServer(
                [0.1],
                ImmediateMaskPolicy("p", 1),
                workers=[WorkerSpec(3, 0.1)],
            )

    def test_rejects_bad_buffer(self):
        # Validation lives in the config object now.
        with pytest.raises(ValueError):
            ServerConfig(max_buffer=0)

    def test_worker_spec_validation(self):
        with pytest.raises(ValueError):
            WorkerSpec(-1, 0.1)
        with pytest.raises(ValueError):
            WorkerSpec(0, 0.0)
        with pytest.raises(ValueError):
            WorkerSpec(0, np.nan)


class TestFastPath:
    """The Exp-5 waiting-time optimisation: idle system -> direct
    dispatch of the fastest model, skipping prediction + scheduling."""

    def _policy(self, fast_path):
        utilities = np.zeros((4, 4))
        utilities[:, 1:] = 0.9
        return BufferedSchedulingPolicy(
            "s", DPScheduler(delta=0.01), utilities,
            entry_delay=0.05, fast_path=fast_path,
        )

    def test_idle_arrival_skips_prediction_delay(self):
        server = EnsembleServer(
            [0.02, 0.1], self._policy(True),
            config=ServerConfig(overhead_base=0.0, overhead_per_unit=0.0),
        )
        result = server.run(workload([0.0], deadline=1.0))
        record = result.records[0]
        # Fastest model, no 50ms predictor delay, no scheduling.
        assert record.executed_mask == 0b01
        assert record.completion == pytest.approx(0.02)
        assert result.scheduler_invocations == 0

    def test_busy_system_uses_normal_path(self):
        server = EnsembleServer(
            [0.02, 0.1], self._policy(True),
            config=ServerConfig(overhead_base=0.0, overhead_per_unit=0.0),
        )
        result = server.run(workload([0.0, 0.005], deadline=1.0))
        # The second query arrives while model 0 is busy: it must go
        # through prediction + scheduling.
        assert result.scheduler_invocations >= 1

    def test_disabled_by_default(self):
        policy = self._policy(False)
        server = EnsembleServer(
            [0.02, 0.1], policy,
            config=ServerConfig(overhead_base=0.0, overhead_per_unit=0.0),
        )
        result = server.run(workload([0.0], deadline=1.0))
        # Prediction delay applies: completion includes the 50ms.
        assert result.records[0].completion >= 0.05
        assert result.scheduler_invocations == 1
