"""ServingSession streaming interface and the control actuation hooks.

``EnsembleServer.run`` is now offer-everything-then-finish over a
:class:`~repro.serving.server.ServingSession`; the contract that makes
the control plane sound is that chunked streaming (offer/advance
interleaved at epoch boundaries) is event-for-event identical to the
batch path when nothing actuates in between.
"""

import heapq as real_heapq

import numpy as np
import pytest

from repro.faults import DowntimeWindow, FaultPlan
from repro.obs import spans as sp
from repro.obs.tracer import RecordingTracer
from repro.scheduling.greedy import GreedyScheduler
from repro.serving import server as server_module
from repro.serving.config import ServerConfig
from repro.serving.policies import BufferedSchedulingPolicy, ImmediateMaskPolicy
from repro.serving.server import EnsembleServer
from repro.serving.workload import ServingWorkload

LATENCIES = [0.05, 0.11, 0.2]


def make_policy(n_pool=32, seed=0, buffered=True):
    rng = np.random.default_rng(seed)
    m = len(LATENCIES)
    quality = np.zeros((n_pool, 2 ** m))
    quality[:, 1:] = rng.uniform(0.2, 1.0, (n_pool, 2 ** m - 1))
    scores = rng.uniform(0, 1, n_pool)
    if buffered:
        return BufferedSchedulingPolicy(
            "p", GreedyScheduler(order="edf"), quality,
            scores=scores, fast_path=True,
        )
    return ImmediateMaskPolicy("imm", 0b11)


def make_workload(n=200, rate=30.0, deadline=0.5, seed=1, n_pool=32):
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0, n / rate, n))
    quality = np.ones((n_pool, 2 ** len(LATENCIES)))
    quality[:, 0] = 0.0
    return ServingWorkload(
        arrivals=arrivals,
        deadlines=np.full(n, deadline),
        sample_indices=rng.integers(n_pool, size=n),
        quality=quality,
    )


def record_tuple(r):
    return (
        r.query_id, r.sample_index, r.arrival, r.deadline,
        r.completion, r.executed_mask, r.rejected,
    )


def stream_in_epochs(session, workload, epoch=0.5, after_advance=None):
    """Offer ``workload`` to ``session`` epoch by epoch, advancing to
    each boundary (then calling ``after_advance``), and finish."""
    qi, n = 0, workload.n_queries
    t = epoch
    while qi < n or session.pending:
        while qi < n and float(workload.arrivals[qi]) < t:
            session.offer(
                float(workload.arrivals[qi]),
                float(workload.deadlines[qi]),
                int(workload.sample_indices[qi]),
            )
            qi += 1
        session.advance(t)
        if after_advance is not None:
            after_advance()
        t += epoch
    return session.finish()


# Jitter, transient failures, a crash window and retry backoff: the
# control loop streams shards configured like this.
FAULTY = ServerConfig(
    faults=FaultPlan(
        seed=3, latency_jitter=0.2, task_failure_rate=0.1,
        downtime=(DowntimeWindow(1, 2.13, 3.02),),
    ),
    max_retries=2, retry_backoff=0.01,
)


class TestStreamingEquivalence:
    @pytest.mark.parametrize("buffered, config", [
        (True, None), (False, None), (True, FAULTY),
    ], ids=["True", "False", "faulty"])
    def test_chunked_session_matches_run(self, buffered, config):
        workload = make_workload()
        policy = make_policy(buffered=buffered)

        tracer_a = RecordingTracer()
        server_a = EnsembleServer(
            LATENCIES, policy, config=config, tracer=tracer_a
        )
        batch = server_a.run(workload)

        tracer_b = RecordingTracer()
        server_b = EnsembleServer(
            LATENCIES, policy, config=config, tracer=tracer_b
        )
        streamed = stream_in_epochs(server_b.session(), workload)

        assert [record_tuple(r) for r in batch.records] == [
            record_tuple(r) for r in streamed.records
        ]
        assert batch.scheduler_invocations == streamed.scheduler_invocations
        assert [
            (s.kind, s.time, s.query_id) for s in tracer_a.spans
        ] == [
            (s.kind, s.time, s.query_id) for s in tracer_b.spans
        ]

    def test_run_reuses_server(self):
        workload = make_workload(n=60)
        policy = make_policy()
        server = EnsembleServer(LATENCIES, policy)
        first = server.run(workload)
        second = server.run(workload)
        assert [record_tuple(r) for r in first.records] == [
            record_tuple(r) for r in second.records
        ]


class TestSessionContract:
    def test_offer_in_past_rejected(self):
        server = EnsembleServer(LATENCIES, make_policy())
        session = server.session()
        session.offer(1.0, 0.5, 0)
        session.advance(2.0)
        with pytest.raises(ValueError, match="past"):
            session.offer(0.5, 0.5, 0)

    def test_finish_twice_rejected(self):
        server = EnsembleServer(LATENCIES, make_policy())
        session = server.session()
        session.finish()
        with pytest.raises(RuntimeError):
            session.finish()
        with pytest.raises(RuntimeError):
            session.offer(0.0, 1.0, 0)

    def test_advance_is_bounded(self):
        server = EnsembleServer([0.1], ImmediateMaskPolicy("p", 0b1))
        session = server.session()
        session.offer(0.0, 1.0, 0)
        session.offer(5.0, 1.0, 0)
        session.advance(1.0)
        assert session.pending  # the t=5 arrival is still queued
        assert session.now <= 1.0
        session.advance(None)
        assert not session.pending


class TestReplicaHooks:
    def test_add_replica_set_serves_after_warmup(self):
        server = EnsembleServer([0.1], ImmediateMaskPolicy("p", 0b1))
        session = server.session()
        assert server.n_workers == 1
        server.add_replica_set(0.0, warmup=1.0)
        assert server.n_workers == 2
        # Two same-time queries: one runs at t=0 on the baseline
        # worker; the warming replica is busy until t=1, so the second
        # queues behind whichever frees first.
        session.offer(0.0, 5.0, 0)
        session.offer(0.0, 5.0, 0)
        result = session.finish()
        completions = sorted(r.completion for r in result.records)
        assert completions[0] == pytest.approx(0.1)
        # Queued on the baseline (0.2) rather than warming until 1.1.
        assert completions[1] == pytest.approx(0.2)

    def test_retire_is_lifo_and_keeps_baseline(self):
        server = EnsembleServer([0.1, 0.2], ImmediateMaskPolicy("p", 0b11))
        first = server.add_replica_set(0.0)
        second = server.add_replica_set(0.0)
        assert server.n_workers == 6
        assert server.retire_replica_set() == second
        assert server.retire_replica_set() == first
        assert server.retire_replica_set() is None
        assert server.n_workers == 6  # retired workers drain, not vanish

    def test_retired_workers_get_no_new_work(self):
        server = EnsembleServer([0.1], ImmediateMaskPolicy("p", 0b1))
        session = server.session()
        server.add_replica_set(0.0)
        server.retire_replica_set()
        session.offer(0.0, 5.0, 0)
        session.offer(0.0, 5.0, 0)
        result = session.finish()
        completions = sorted(r.completion for r in result.records)
        # Only the baseline worker serves: strictly serial.
        np.testing.assert_allclose(completions, [0.1, 0.2])

    def test_session_reset_discards_extras(self):
        server = EnsembleServer([0.1], ImmediateMaskPolicy("p", 0b1))
        server.add_replica_set(0.0)
        assert server.n_workers == 2
        server.session()
        assert server.n_workers == 1


class TestCheapMask:
    def test_clamp_marks_degraded(self):
        server = EnsembleServer(
            [0.1, 0.3], ImmediateMaskPolicy("p", 0b11),
            tracer=RecordingTracer(),
        )
        session = server.session()
        server.set_cheap_mask(0b01)
        session.offer(0.0, 5.0, 0)
        result = session.finish()
        record = result.records[0]
        assert record.executed_mask == 0b01
        assert record.degraded
        complete = [
            s for s in server.tracer.spans if s.kind == "complete"
        ]
        assert complete[0].attrs.get("degraded") is True

    def test_disjoint_plan_falls_back_to_cheap_mask(self):
        server = EnsembleServer([0.1, 0.3], ImmediateMaskPolicy("p", 0b10))
        session = server.session()
        server.set_cheap_mask(0b01)
        session.offer(0.0, 5.0, 0)
        result = session.finish()
        # mask 0b10 & cheap 0b01 == 0 -> serve the cheap subset itself.
        assert result.records[0].executed_mask == 0b01

    def test_restore_returns_full_quality(self):
        server = EnsembleServer([0.1, 0.3], ImmediateMaskPolicy("p", 0b11))
        session = server.session()
        server.set_cheap_mask(0b01)
        server.set_cheap_mask(None)
        session.offer(0.0, 5.0, 0)
        result = session.finish()
        assert result.records[0].executed_mask == 0b11
        assert not result.records[0].degraded

    def test_mask_validated(self):
        server = EnsembleServer([0.1, 0.3], ImmediateMaskPolicy("p", 0b11))
        with pytest.raises(ValueError):
            server.set_cheap_mask(0)
        with pytest.raises(ValueError):
            server.set_cheap_mask(0b100)


def stream_outcomes(server, workload):
    """Stream ``workload`` through a fresh session in epochs, taking its
    outcomes after every advance and after ``finish``."""
    session = server.session()
    session.outcomes = []
    taken = []

    def take():
        taken.extend(session.outcomes)
        session.outcomes.clear()

    stream_in_epochs(session, workload, after_advance=take)
    take()
    return taken


def span_outcomes(spans):
    """The outcome each terminal span stands for, in emission order."""
    out = []
    for span in spans:
        if span.kind == sp.COMPLETE:
            out.append((
                span.time,
                span.attrs["slack"] < 0.0,
                bool(span.attrs.get("degraded", False)),
            ))
        elif span.kind == sp.REJECT:
            out.append((span.time, True, False))
    return out


def reject_reasons(spans):
    return {s.attrs["reason"] for s in spans if s.kind == sp.REJECT}


# Every other task fails and nothing retries: a query on several models
# mostly ends degraded, and one whose every task failed is rejected.
LOSSY = ServerConfig(
    faults=FaultPlan(seed=4, task_failure_rate=0.5), max_retries=0,
)


class TestSessionOutcomes:
    """The outcomes a session hands back are its terminal spans."""

    @pytest.mark.parametrize("buffered, config, reasons", [
        (True, ServerConfig(), {"infeasible"}),
        (False, ServerConfig(), {"estimate"}),
        (False, LOSSY, {"faulted"}),
    ], ids=["infeasible", "estimate", "faulted"])
    def test_outcomes_equal_terminal_spans(self, buffered, config, reasons):
        workload = make_workload(n=400, rate=60.0, deadline=0.15)
        tracer = RecordingTracer()
        server = EnsembleServer(
            LATENCIES, make_policy(buffered=buffered),
            config=config, tracer=tracer,
        )
        outcomes = stream_outcomes(server, workload)
        assert reasons <= reject_reasons(tracer.spans)
        assert outcomes == span_outcomes(tracer.spans)
        assert len(outcomes) == workload.n_queries
        if config is LOSSY:
            assert any(degraded for _, _, degraded in outcomes)
        assert any(missed for _, missed, _ in outcomes)
        assert not all(missed for _, missed, _ in outcomes)

    def test_leftovers_rejected_at_finish(self, monkeypatch):
        # Dropping every _SCHEDULE push leaves buffered queries unplanned
        # until finish rejects them (normally unreachable).
        class DroppingHeapq:
            @staticmethod
            def heappush(heap, item):
                if item[2] != server_module._SCHEDULE:
                    real_heapq.heappush(heap, item)

            heappop = staticmethod(real_heapq.heappop)

        monkeypatch.setattr(server_module, "heapq", DroppingHeapq)
        policy = make_policy()
        policy.fast_path = False  # no task ever runs to plan the buffer
        workload = make_workload(n=40)
        tracer = RecordingTracer()
        server = EnsembleServer(LATENCIES, policy, tracer=tracer)
        outcomes = stream_outcomes(server, workload)
        assert reject_reasons(tracer.spans) == {"unserved"}
        assert len(outcomes) == workload.n_queries
        assert outcomes == span_outcomes(tracer.spans)

    def test_batch_run_keeps_no_outcomes(self):
        server = EnsembleServer(LATENCIES, make_policy())
        server.run(make_workload(n=60))
        assert server._session.outcomes is None
