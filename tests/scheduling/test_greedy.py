"""Greedy scheduler behaviour, and its agreement with the numpy oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.greedy import _EPS, GreedyScheduler
from repro.scheduling.orders import ORDERS
from repro.scheduling.problem import (
    QueryRequest,
    SchedulingInstance,
    evaluate_schedule,
)
from tests.scheduling._synthetic import numpy_greedy


class TestGreedyScheduler:
    def test_picks_highest_reward_feasible(self):
        u = np.array([0.0, 0.5, 0.7, 0.9])
        q = QueryRequest(0, 0.0, 0.2, u)
        inst = SchedulingInstance([q], np.array([0.02, 0.07]), np.zeros(2))
        result = GreedyScheduler("edf").schedule(inst)
        assert result.mask_for(0) == 3

    def test_ties_broken_toward_faster_subset(self):
        u = np.array([0.0, 0.8, 0.8, 0.8])
        q = QueryRequest(0, 0.0, 0.2, u)
        inst = SchedulingInstance([q], np.array([0.02, 0.07]), np.zeros(2))
        result = GreedyScheduler("edf").schedule(inst)
        assert result.mask_for(0) == 1  # fastest of the tied masks

    def test_skips_infeasible(self):
        u = np.array([0.0, 1.0])
        q = QueryRequest(0, 0.0, 0.05, u)
        inst = SchedulingInstance([q], np.array([0.1]), np.zeros(1))
        assert GreedyScheduler("edf").schedule(inst).mask_for(0) == 0

    def test_myopia_versus_later_queries(self):
        """Greedy gives the full set to the first query and starves the
        second — the failure mode the DP fixes."""
        u = np.array([0.0, 0.8, 0.85, 0.9])
        queries = [
            QueryRequest(0, 0.0, 0.1, u),
            QueryRequest(1, 0.0, 0.1, u),
        ]
        inst = SchedulingInstance(queries, np.array([0.08, 0.09]), np.zeros(2))
        result = GreedyScheduler("edf").schedule(inst)
        masks = [result.mask_for(0), result.mask_for(1)]
        assert masks[0] == 3  # grabbed everything
        assert masks[1] == 0  # nothing left in time
        assert result.total_utility == pytest.approx(0.9)

    def test_greedy_schedule_is_feasible(self):
        rng = np.random.default_rng(0)
        queries = [
            QueryRequest(
                i,
                float(rng.uniform(0, 0.02)),
                float(rng.uniform(0.1, 0.25)),
                np.array([0.0, 0.4, 0.5, 0.8]),
            )
            for i in range(6)
        ]
        inst = SchedulingInstance(queries, np.array([0.03, 0.06]), np.zeros(2))
        result = GreedyScheduler("edf").schedule(inst)
        achieved = evaluate_schedule(inst, result.decisions)
        assert achieved == pytest.approx(result.total_utility)

    def test_order_parameter_changes_processing(self):
        u = np.array([0.0, 1.0])
        queries = [
            QueryRequest(0, arrival=0.0, deadline=0.30, utilities=u, score=0.1),
            QueryRequest(1, arrival=0.01, deadline=0.11, utilities=u, score=0.9),
        ]
        inst = SchedulingInstance(queries, np.array([0.1]), np.zeros(1))
        edf = GreedyScheduler("edf").schedule(inst)
        fifo = GreedyScheduler("fifo").schedule(inst)
        # EDF serves the tight deadline first and completes both; FIFO
        # runs query 0 first, leaving query 1 past its deadline.
        assert edf.total_utility == pytest.approx(2.0)
        assert fifo.total_utility == pytest.approx(1.0)

    def test_full_tie_resolves_to_lowest_mask(self):
        """Equal reward AND equal completion: the lowest mask wins."""
        u = np.array([0.0, 0.7, 0.7, 0.7])
        q = QueryRequest(0, 0.0, 0.07, u)
        inst = SchedulingInstance([q], np.array([0.05, 0.05]), np.zeros(2))
        result = GreedyScheduler("edf").schedule(inst)
        # Masks 1, 2 and 3 all complete at 0.05 with reward 0.7.
        assert result.mask_for(0) == 1

    def test_busy_model_shifts_the_tie(self):
        """Same rewards, but model 0 starts busy: mask 2 now completes
        first and must win over the lower mask."""
        u = np.array([0.0, 0.7, 0.7, 0.7])
        q = QueryRequest(0, 0.0, 0.07, u)
        inst = SchedulingInstance(
            [q], np.array([0.05, 0.05]), np.array([0.01, 0.0]),
        )
        result = GreedyScheduler("edf").schedule(inst)
        assert result.mask_for(0) == 2

    def test_selection_is_deterministic_across_runs(self):
        rng = np.random.default_rng(9)
        queries = [
            QueryRequest(
                i, 0.0, float(rng.uniform(0.1, 0.3)),
                np.round(rng.uniform(0, 1, 8) * np.array([0, 1, 1, 1, 1, 1, 1, 1]), 1),
            )
            for i in range(5)
        ]
        inst = SchedulingInstance(
            queries, np.array([0.05, 0.05, 0.05]), np.zeros(3),
        )
        plans = {
            tuple(d.mask for d in GreedyScheduler("edf").schedule(inst).decisions)
            for _ in range(5)
        }
        assert len(plans) == 1

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            GreedyScheduler("lifo")

    def test_empty_instance(self):
        inst = SchedulingInstance([], np.array([0.1]), np.zeros(1))
        assert GreedyScheduler("edf").schedule(inst).decisions == []


@st.composite
def adversarial_instances(draw):
    """1-12 queries on 1-6 models where every tie-break step decides:
    rewards on a 0.1 grid (exact ties) nudged by 0, ε/2, ε or 2ε, some
    rewards exactly ε (the eligibility edge), latencies equal or a
    fraction of ε apart (completion ties within ε), downed models
    (+inf busy time), and tied arrivals and scores for FIFO and SJF."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        latencies = np.full(m, 0.05)
    else:
        latencies = rng.choice([0.02, 0.05, 0.09], size=m)
    latencies = latencies + rng.choice([0.0, 0.5 * _EPS, _EPS], size=m)
    busy = rng.choice([0.0, 0.01, 0.03], size=m)
    downed = draw(st.lists(st.integers(0, m - 1), max_size=m, unique=True))
    busy[downed] = np.inf
    n_masks = 1 << m
    queries = []
    for qid in range(n):
        utilities = np.zeros(n_masks)
        utilities[1:] = np.round(rng.uniform(0.0, 1.0, n_masks - 1), 1)
        utilities[1:] += rng.choice(
            [0.0, 0.5 * _EPS, _EPS, 2 * _EPS], size=n_masks - 1
        )
        utilities[1:][rng.random(n_masks - 1) < 0.1] = _EPS
        arrival = float(rng.choice([0.0, 0.01]))
        queries.append(QueryRequest(
            query_id=qid,
            arrival=arrival,
            deadline=arrival + float(rng.choice([0.03, 0.07, 0.12, 0.3])),
            utilities=utilities,
            score=float(rng.choice([0.2, 0.5])),
        ))
    return SchedulingInstance(queries, latencies, busy, now=0.0)


class TestMatchesNumpyOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        instance=adversarial_instances(),
        order=st.sampled_from(sorted(ORDERS)),
    )
    def test_agrees_on_adversarial_instances(self, instance, order):
        loop = GreedyScheduler(order).schedule(instance)
        oracle = numpy_greedy(instance, order)
        assert [(d.query_id, d.mask) for d in loop.decisions] == [
            (d.query_id, d.mask) for d in oracle.decisions
        ]
        assert loop.total_utility == oracle.total_utility
        assert loop.work_units == oracle.work_units
