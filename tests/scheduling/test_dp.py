"""DP scheduler (Alg. 1) correctness."""

import numpy as np
import pytest

from repro.scheduling.bruteforce import BruteForceScheduler
from repro.scheduling.dp import DPScheduler
from repro.scheduling.greedy import GreedyScheduler
from repro.scheduling.problem import (
    QueryRequest,
    SchedulingInstance,
    evaluate_schedule,
)
from tests.scheduling._synthetic import random_instance


class TestDPScheduler:
    def test_empty_instance(self):
        inst = SchedulingInstance([], np.array([0.1]), np.zeros(1))
        result = DPScheduler().schedule(inst)
        assert result.decisions == []
        assert result.total_utility == 0.0

    def test_single_query_picks_best_feasible(self):
        u = np.array([0.0, 0.5, 0.7, 0.9])
        q = QueryRequest(0, 0.0, 0.08, u)
        inst = SchedulingInstance([q], np.array([0.02, 0.07]), np.zeros(2))
        result = DPScheduler(delta=0.01).schedule(inst)
        assert result.mask_for(0) == 3  # both fit within 0.08

    def test_infeasible_query_skipped(self):
        u = np.array([0.0, 0.9])
        q = QueryRequest(0, 0.0, 0.05, u)
        inst = SchedulingInstance([q], np.array([0.1]), np.zeros(1))
        result = DPScheduler().schedule(inst)
        assert result.mask_for(0) == 0

    def test_respects_busy_until(self):
        u = np.array([0.0, 0.9])
        q = QueryRequest(0, 0.0, 0.15, u)
        busy_inst = SchedulingInstance(
            [q], np.array([0.1]), np.array([0.1])
        )
        # 0.1 busy + 0.1 latency = 0.2 > 0.15 deadline.
        assert DPScheduler().schedule(busy_inst).mask_for(0) == 0

    def test_prefers_splitting_under_contention(self):
        """Two easy queries, tight deadlines: splitting models between
        them beats giving the full ensemble to one (Section I example)."""
        u = np.array([0.0, 0.8, 0.85, 0.9])
        queries = [
            QueryRequest(0, 0.0, 0.1, u),
            QueryRequest(1, 0.0, 0.1, u),
        ]
        inst = SchedulingInstance(queries, np.array([0.08, 0.09]), np.zeros(2))
        result = DPScheduler(delta=0.01).schedule(inst)
        masks = sorted(d.mask for d in result.decisions)
        assert masks == [1, 2]  # one model each, both meet deadlines

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_bruteforce_within_epsilon(self, seed):
        """Theorem 3: DP achieves >= (1 - ε) of the optimum."""
        inst = random_instance(4, 3, seed)
        dp = DPScheduler(delta=0.005).schedule(inst)
        optimal = BruteForceScheduler(search_orders=True).schedule(inst)
        achieved = evaluate_schedule(inst, dp.decisions)
        n = inst.n_queries
        epsilon = 0.005 * n  # δ = ε/N  =>  ε = δN
        assert achieved >= (1 - epsilon) * optimal.total_utility - 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_never_worse_than_greedy(self, seed):
        inst = random_instance(5, 3, seed + 100)
        dp = DPScheduler(delta=0.005).schedule(inst)
        greedy = GreedyScheduler("edf").schedule(inst)
        assert dp.total_utility >= greedy.total_utility - 1e-9

    def test_coarse_delta_still_feasible(self):
        inst = random_instance(5, 3, 7)
        result = DPScheduler(delta=0.25).schedule(inst)
        # All scheduled (non-empty) decisions meet deadlines by construction.
        achieved = evaluate_schedule(inst, result.decisions)
        scheduled = [d for d in result.decisions if d.mask]
        by_id = {q.query_id: q for q in inst.queries}
        total = sum(by_id[d.query_id].utilities[d.mask] for d in scheduled)
        assert achieved == pytest.approx(total)

    def test_work_units_grow_as_delta_shrinks(self):
        inst = random_instance(6, 3, 11)
        coarse = DPScheduler(delta=0.1).schedule(inst)
        fine = DPScheduler(delta=0.005).schedule(inst)
        assert fine.work_units > coarse.work_units

    def test_decisions_cover_all_queries_in_edf_order(self):
        inst = random_instance(5, 2, 13)
        result = DPScheduler().schedule(inst)
        ids = [d.query_id for d in result.decisions]
        assert sorted(ids) == list(range(5))
        deadlines = {q.query_id: q.deadline for q in inst.queries}
        ordered = [deadlines[i] for i in ids]
        assert ordered == sorted(ordered)

    def test_validation(self):
        with pytest.raises(ValueError):
            DPScheduler(delta=0.0)
        with pytest.raises(ValueError):
            DPScheduler(max_solutions_per_cell=0)


class TestAdaptiveDelta:
    def test_step_scales_with_buffer(self):
        scheduler = DPScheduler(delta=None, epsilon=0.1)
        assert scheduler.step_for(1) == pytest.approx(0.1)
        assert scheduler.step_for(10) == pytest.approx(0.01)

    def test_fixed_delta_ignores_buffer(self):
        scheduler = DPScheduler(delta=0.05)
        assert scheduler.step_for(100) == 0.05

    @pytest.mark.parametrize("seed", range(5))
    def test_adaptive_meets_epsilon_bound(self, seed):
        inst = random_instance(4, 3, seed + 300)
        epsilon = 0.05
        adaptive = DPScheduler(delta=None, epsilon=epsilon).schedule(inst)
        optimal = BruteForceScheduler(search_orders=True).schedule(inst)
        achieved = evaluate_schedule(inst, adaptive.decisions)
        assert achieved >= (1 - epsilon) * optimal.total_utility - 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            DPScheduler(delta=None, epsilon=0.0)
