"""DP step profiler: bit-exact plans with timers on, phase accounting.

The ``profile`` flag wraps the four internal step phases
(:data:`~repro.scheduling.dp.DP_PHASES`) in ``perf_counter`` timers.
Timers only read the clock — these tests lock that the profiled plans
stay bit-identical to the default path and that every phase's wall
clock is recorded and accumulated. Each test runs one instance the
size dispatch serves with the loop form and one it serves with the
kernel, and a served run must not depend on which form ran.
"""

import math

import numpy as np

from repro.obs import spans as sp
from repro.obs.explain import DecisionLog
from repro.obs.tracer import RecordingTracer
from repro.scheduling import dp
from repro.scheduling.dp import DP_PHASES, LOOP_FORM_MAX_SIZE, DPScheduler
from repro.scheduling.problem import SchedulingInstance
from repro.serving.policies import BufferedSchedulingPolicy
from repro.serving.server import EnsembleServer
from repro.serving.workload import ServingWorkload
from tests.scheduling._synthetic import monotone_utilities, random_instance


def straddling_instances(seed):
    """Two 3-model instances: one at most ``LOOP_FORM_MAX_SIZE`` (the
    loop form) and one above it (the kernel)."""
    n_loop = LOOP_FORM_MAX_SIZE >> 3
    below = random_instance(n=n_loop, m=3, seed=seed)
    above = random_instance(n=n_loop + 2, m=3, seed=seed)
    assert below.n_queries << 3 <= LOOP_FORM_MAX_SIZE < above.n_queries << 3
    return below, above


def assert_identical(a, b):
    assert [(d.query_id, d.mask) for d in a.decisions] == [
        (d.query_id, d.mask) for d in b.decisions
    ]
    assert a.total_utility == b.total_utility
    assert a.work_units == b.work_units


class TestProfiledParity:
    def test_plans_bit_identical_with_profiling(self):
        for seed in range(20):
            for inst in straddling_instances(seed):
                plain = DPScheduler(delta=0.02).schedule(inst)
                profiled_scheduler = DPScheduler(delta=0.02)
                profiled_scheduler.profile = True
                assert_identical(profiled_scheduler.schedule(inst), plain)

    def test_profiling_composes_with_collect_stats(self):
        for inst in straddling_instances(1):
            plain = DPScheduler(delta=0.02).schedule(inst)
            scheduler = DPScheduler(delta=0.02)
            scheduler.profile = True
            scheduler.collect_stats = True
            assert_identical(scheduler.schedule(inst), plain)
            stats = scheduler.last_stats
            assert stats is not None
            assert len(stats.frontier_sizes) == inst.n_queries
            # The stats snapshot and the profiler share one phase dict.
            assert stats.phase_wall is scheduler.last_phase_wall


class TestPhaseAccounting:
    def test_every_phase_recorded(self):
        for inst in straddling_instances(4):
            scheduler = DPScheduler(delta=0.02)
            scheduler.profile = True
            scheduler.schedule(inst)
            assert scheduler.last_phase_wall is not None
            assert set(scheduler.last_phase_wall) == set(DP_PHASES)
            assert all(v >= 0.0 for v in scheduler.last_phase_wall.values())
            assert sum(scheduler.last_phase_wall.values()) > 0.0

    def test_run_totals_accumulate(self):
        scheduler = DPScheduler(delta=0.02)
        scheduler.profile = True
        per_call = []
        for seed in range(4):
            for inst in straddling_instances(seed):
                scheduler.schedule(inst)
                per_call.append(dict(scheduler.last_phase_wall))
        for phase in DP_PHASES:
            total = sum(call[phase] for call in per_call)
            assert scheduler.phase_wall[phase] == total

    def test_off_by_default_and_costless(self):
        scheduler = DPScheduler(delta=0.02)
        assert scheduler.profile is False
        for inst in straddling_instances(2):
            scheduler.schedule(inst)
        assert scheduler.last_phase_wall is None
        assert all(v == 0.0 for v in scheduler.phase_wall.values())

    def test_empty_instance_profiled(self):
        scheduler = DPScheduler()
        scheduler.profile = True
        result = scheduler.schedule(
            SchedulingInstance([], np.array([0.1]), np.zeros(1))
        )
        assert result.decisions == []
        # The phase dict exists (zeroed) even for the n == 0 early-out,
        # so emitters never trip over a missing call record.
        assert scheduler.last_phase_wall == {p: 0.0 for p in DP_PHASES}


def burst_workload(seed=0, n=120, n_pool=16):
    """A 3-model burst whose buffers fall on both sides of the
    crossover: a trickle over 4 s, with a 2 s burst at seven times its
    rate."""
    rng = np.random.default_rng(seed)
    arrivals = np.sort(np.concatenate([
        rng.uniform(0.0, 4.0, n // 4),
        rng.uniform(1.0, 3.0, n - n // 4),
    ]))
    return ServingWorkload(
        arrivals=arrivals,
        deadlines=rng.uniform(0.1, 0.3, n),
        sample_indices=rng.integers(0, n_pool, n),
        quality=np.stack(
            [monotone_utilities(rng, 3) for _ in range(n_pool)]
        ),
    )


def serve_explained_profiled(workload):
    """Records, decision log and span stream (``wall_s`` masked) of an
    explained, profiled DP run."""
    policy = BufferedSchedulingPolicy(
        "schemble", DPScheduler(delta=0.05), workload.quality
    )
    tracer = RecordingTracer(profile=True)
    log = DecisionLog()
    result = EnsembleServer(
        [0.02, 0.07, 0.09], policy, tracer=tracer, explain=log,
    ).run(workload)
    spans = [
        (s.kind, s.time, s.query_id,
         {k: v for k, v in s.attrs.items() if k != "wall_s"})
        for s in tracer.spans
    ]
    return result.records, log.records, spans


class TestFormsEndToEnd:
    def test_served_run_identical_in_either_form(self, monkeypatch):
        workload = burst_workload()
        dispatched = serve_explained_profiled(workload)
        spans = dispatched[2]
        batches = [
            attrs["batch"] for kind, _, _, attrs in spans
            if kind == sp.SCHEDULE
        ]
        # Under the dispatch the run exercises both forms.
        assert min(batches) << 3 <= LOOP_FORM_MAX_SIZE < max(batches) << 3
        assert any(kind == sp.SCHED_PHASE for kind, *_ in spans)
        monkeypatch.setattr(dp, "LOOP_FORM_MAX_SIZE", 0)
        assert serve_explained_profiled(workload) == dispatched
        monkeypatch.setattr(dp, "LOOP_FORM_MAX_SIZE", math.inf)
        assert serve_explained_profiled(workload) == dispatched
