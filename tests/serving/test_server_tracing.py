"""Event-loop ordering asserted via the tracer's span sequence.

Events at one simulated instant run in push order: heap entries are
``(time, seq, kind, payload)`` with a unique ``seq``, so the event kind
never breaks a tie. A completion plans the freed capacity inside its
own handler, and the same-time schedule event an arrival's buffer entry
pushes runs after every arrival already queued for that instant, so
completions free capacity before the scheduler runs and a same-instant
burst joins the buffer before planning starts. The span stream a
``RecordingTracer`` records is a faithful log of the loop's branch
order, so these properties become assertable.
"""

import heapq as real_heapq

import numpy as np
import pytest

from repro.obs import spans as sp
from repro.obs.tracer import RecordingTracer
from repro.scheduling.dp import DPScheduler
from repro.serving import server as server_module
from repro.serving.config import ServerConfig
from repro.serving.policies import BufferedSchedulingPolicy
from repro.serving.server import EnsembleServer
from repro.serving.workload import ServingWorkload


def buffered_policy(m=1, n_pool=4, **kwargs):
    utilities = np.ones((n_pool, 1 << m))
    utilities[:, 0] = 0.0
    return BufferedSchedulingPolicy(
        "schemble", DPScheduler(delta=0.05), utilities, **kwargs
    )


def workload(arrivals, deadline, m=1, n_pool=4):
    arrivals = np.asarray(arrivals, dtype=float)
    n = arrivals.shape[0]
    quality = np.ones((n_pool, 1 << m))
    quality[:, 0] = 0.0
    return ServingWorkload(
        arrivals=arrivals,
        deadlines=np.full(n, deadline),
        sample_indices=np.zeros(n, dtype=int),
        quality=quality,
    )


def traced_server(latencies, policy, **knobs):
    tracer = RecordingTracer()
    server = EnsembleServer.from_config(
        latencies, policy, ServerConfig(**knobs), tracer=tracer
    )
    return server, tracer


class TestSameInstantBurst:
    def test_burst_planned_as_one_batch(self):
        # Three arrivals at t=0: every _ENTER_BUFFER must land before the
        # first _SCHEDULE runs, so the scheduler sees the whole burst.
        server, tracer = traced_server([0.1], buffered_policy())
        server.run(workload([0.0, 0.0, 0.0], deadline=5.0))
        schedules = sp.spans_of_kind(tracer.spans, sp.SCHEDULE)
        assert schedules[0].attrs["batch"] == 3

    def test_buffer_fills_before_planning(self):
        server, tracer = traced_server([0.1], buffered_policy())
        server.run(workload([0.0, 0.0, 0.0], deadline=5.0))
        kinds = [s.kind for s in tracer.spans]
        first_schedule = kinds.index(sp.SCHEDULE)
        enters = [i for i, k in enumerate(kinds) if k == sp.ENTER_BUFFER]
        assert len(enters) == 3
        assert all(i < first_schedule for i in enters)
        depths = [
            s.attrs["depth"]
            for s in sp.spans_of_kind(tracer.spans, sp.ENTER_BUFFER)
        ]
        assert depths == [1, 2, 3]

    def test_burst_exceeding_max_buffer_splits(self):
        server, tracer = traced_server(
            [0.1], buffered_policy(), max_buffer=2
        )
        server.run(workload([0.0, 0.0, 0.0], deadline=5.0))
        schedules = sp.spans_of_kind(tracer.spans, sp.SCHEDULE)
        assert schedules[0].attrs["batch"] == 2


class TestCompletionBeforePlanning:
    def test_task_done_precedes_schedule_at_equal_time(self):
        # Query 0 occupies the single worker until t=0.1; query 1 arrives
        # at t=0.02 and must wait. The t=0.1 completion has to release
        # the worker *before* the scheduler plans query 1 — otherwise
        # try_schedule still sees a busy system and query 1 starves.
        server, tracer = traced_server(
            [0.1], buffered_policy(),
            overhead_base=0.0, overhead_per_unit=0.0,
        )
        result = server.run(workload([0.0, 0.02], deadline=5.0))
        at_done = [s for s in tracer.spans if s.time == pytest.approx(0.1)]
        kinds = [s.kind for s in at_done]
        assert kinds.index(sp.TASK_DONE) < kinds.index(sp.SCHEDULE)
        second = sp.spans_of_kind(tracer.spans, sp.SCHEDULE)[1]
        assert second.time == pytest.approx(0.1)
        assert second.attrs["batch"] == 1
        assert result.records[1].completion == pytest.approx(0.2)

    def test_no_schedule_while_all_workers_busy(self):
        server, tracer = traced_server(
            [0.1], buffered_policy(),
            overhead_base=0.0, overhead_per_unit=0.0,
        )
        server.run(workload([0.0, 0.02], deadline=5.0))
        schedules = sp.spans_of_kind(tracer.spans, sp.SCHEDULE)
        # Exactly two plans: t=0 (query 0) and t=0.1 (query 1). The
        # arrival at t=0.02 found no idle worker, so no plan ran then.
        assert [s.time for s in schedules] == pytest.approx([0.0, 0.1])


class TestLeftoverBufferRejected:
    @pytest.fixture()
    def no_schedule_events(self, monkeypatch):
        """Drop every _SCHEDULE push so buffered queries never get
        planned — simulating a trace that ends with work still queued
        (normally unreachable: any full-worker state implies a pending
        task-done event, which re-triggers planning)."""

        class _DroppingHeapq:
            @staticmethod
            def heappush(heap, item):
                if item[2] == server_module._SCHEDULE:
                    return
                real_heapq.heappush(heap, item)

            heappop = staticmethod(real_heapq.heappop)

        monkeypatch.setattr(server_module, "heapq", _DroppingHeapq)

    def test_unserved_queries_marked_rejected(self, no_schedule_events):
        server, tracer = traced_server([0.1], buffered_policy())
        result = server.run(workload([0.0, 0.5], deadline=5.0))
        assert all(r.rejected for r in result.records)
        assert result.deadline_miss_rate() == 1.0
        rejects = sp.spans_of_kind(tracer.spans, sp.REJECT)
        assert {s.query_id for s in rejects} == {0, 1}
        assert all(s.attrs["reason"] == "unserved" for s in rejects)
        # The sweep runs after the event loop drains: rejects are last.
        assert [s.kind for s in tracer.spans[-2:]] == [sp.REJECT, sp.REJECT]


class TestRejectedQueryAudit:
    """Rejected queries have no latency (``latency is None``): they
    must never leak into the latency/slack digests, and must instead
    be counted by the dedicated ``queries.rejected`` metric and
    ``ServingResult.n_rejected()``."""

    def run_mixed(self):
        # One slow worker and a burst of six simultaneous arrivals with
        # a 0.5s deadline: only the first query fits, the rest reject.
        server, tracer = traced_server([0.4], buffered_policy())
        result = server.run(workload([0.0] * 6, deadline=0.5))
        return result, tracer

    def test_mix_is_actually_mixed(self):
        result, _ = self.run_mixed()
        served = [r for r in result.records if r.latency is not None]
        assert served and result.n_rejected() > 0
        assert len(served) + result.n_rejected() == len(result.records)

    def test_latency_digest_counts_only_answered(self):
        result, tracer = self.run_mixed()
        served = sum(r.latency is not None for r in result.records)
        latency = tracer.metrics.histogram("query.latency_s")
        slack = tracer.metrics.histogram("deadline.slack_s")
        assert latency.count == served
        assert slack.count == served
        # The digest saw exactly the answered latencies, so its exact-
        # regime quantiles match the post-hoc percentiles.
        assert latency.quantile(0.5) == pytest.approx(
            float(np.percentile(result.latencies(), 50))
        )

    def test_rejected_counter_matches_records(self):
        result, tracer = self.run_mixed()
        counter = tracer.metrics.counter("queries.rejected")
        assert counter.value == result.n_rejected()
        assert result.rejection_rate() == pytest.approx(
            result.n_rejected() / len(result.records)
        )
        completed = tracer.metrics.counter("queries.completed")
        assert completed.value + counter.value == len(result.records)


class TestTracedUntracedIdentity:
    def test_records_identical_with_and_without_tracer(self):
        arrivals = [0.0, 0.0, 0.3, 0.35, 0.9]

        def run(tracer):
            server = EnsembleServer(
                [0.1, 0.25], buffered_policy(m=2), tracer=tracer
            )
            return server.run(workload(arrivals, deadline=0.6, m=2))

        plain = run(None)
        traced = run(RecordingTracer())
        assert plain.records == traced.records
        assert plain.scheduler_invocations == traced.scheduler_invocations
        assert plain.scheduler_work_units == traced.scheduler_work_units
        assert plain.metrics is None and traced.metrics is not None


class _GatedScheduler:
    """Minimal gated scheduler: the server treats any scheduler with a
    ``last_used_fallback`` attribute as gated and emits one
    ``sched_fallback`` span per invocation. Every third call is
    size-routed; of the rest, every second falls back."""

    name = "gated"

    def __init__(self, inner, fallback_every=2):
        self.inner = inner
        self.fallback_every = fallback_every
        self.calls = 0
        self.last_size_routed = False
        self.last_used_fallback = False
        self.last_predicted_regret = 0.0

    def schedule(self, instance):
        self.calls += 1
        self.last_size_routed = self.calls % 3 == 0
        self.last_used_fallback = (
            not self.last_size_routed
            and self.calls % self.fallback_every == 0
        )
        self.last_predicted_regret = (
            0.25 if self.last_used_fallback else 0.0
        )
        return self.inner.schedule(instance)


class TestSchedFallbackSpan:
    def run_gated(self, fallback_every=2):
        policy = buffered_policy().with_scheduler(
            _GatedScheduler(
                DPScheduler(delta=0.05), fallback_every=fallback_every
            )
        )
        server, tracer = traced_server([0.1], policy)
        server.run(workload([0.0, 0.5, 1.0, 1.5], deadline=5.0))
        return tracer

    def test_one_span_per_scheduler_invocation(self):
        tracer = self.run_gated()
        schedules = sp.spans_of_kind(tracer.spans, sp.SCHEDULE)
        gates = sp.spans_of_kind(tracer.spans, sp.SCHED_FALLBACK)
        assert len(gates) == len(schedules) > 0
        assert all(
            {"size_routed", "fallback", "predicted_regret"} <= set(s.attrs)
            for s in gates
        )

    def test_counters_split_fallbacks_from_fast_serves(self):
        tracer = self.run_gated()
        gates = sp.spans_of_kind(tracer.spans, sp.SCHED_FALLBACK)
        routed = sum(1 for s in gates if s.attrs["size_routed"])
        fallbacks = sum(1 for s in gates if s.attrs["fallback"])
        assert routed > 0 and fallbacks > 0
        counter = tracer.metrics.counter
        assert counter("sched.size_routed").value == routed
        assert counter("sched.fallbacks").value == fallbacks
        assert (
            counter("sched.fast_served").value
            == len(gates) - routed - fallbacks > 0
        )

    def test_absent_for_ungated_scheduler(self):
        server, tracer = traced_server([0.1], buffered_policy())
        server.run(workload([0.0, 0.5], deadline=5.0))
        assert not sp.spans_of_kind(tracer.spans, sp.SCHED_FALLBACK)
