"""The DP's forms: bit-exact parity, approximation bound, and the
tie-break regressions the kernel rewrite fixed.

Parity runs each served form directly (``schedule_loop``,
``schedule_kernel``) and through the size dispatch (``schedule``), and
checks them against the reference (:class:`DPReferenceScheduler`,
Algorithm 1 as written): through the dispatch alone both sides of a
small instance would run the loop form.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.bruteforce import BruteForceScheduler
from repro.scheduling.dp import _EPS, DPScheduler
from repro.scheduling.dp_reference import DPReferenceScheduler
from repro.scheduling.problem import QueryRequest, SchedulingInstance
from tests.scheduling._synthetic import random_instance


def randomized_instance(seed, max_queries=8, max_models=4):
    """Adversarial generator: two-decimal rewards (quantised ties are
    common), occasional equal latencies (bit-identical finish-time
    collisions) and occasional downed models (+inf busy time)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_queries + 1))
    m = int(rng.integers(1, max_models + 1))
    if seed % 3 == 0:
        latencies = np.full(m, 0.05)
    else:
        latencies = rng.uniform(0.01, 0.2, size=m)
    busy = rng.uniform(0.0, 0.1, size=m)
    if seed % 5 == 0 and m > 1:
        busy[int(rng.integers(0, m))] = np.inf
    return SchedulingInstance(
        random_queries(rng, n, m), latencies, busy, now=0.0
    )


def random_queries(rng, n, m, now=0.0):
    """``n`` queries with two-decimal rewards: quantised ties are
    common, the case the canonical order and final tie-break exist
    for."""
    queries = []
    for qid in range(n):
        utilities = np.zeros(1 << m)
        utilities[1:] = np.round(rng.uniform(0.0, 1.0, size=(1 << m) - 1), 2)
        queries.append(QueryRequest(
            query_id=qid,
            arrival=now,
            deadline=now + float(rng.uniform(0.05, 0.6)),
            utilities=utilities,
        ))
    return queries


#: Offsets of a boundary deadline from a candidate's completion time:
#: on it, and one and two ``_EPS`` either side of the tolerance.
BOUNDARY_OFFSETS = (0.0, -1e-12, 1e-12, -2e-12, 2e-12)


def tied_deadline(now, completion):
    """A deadline whose limit ``(deadline - now) + _EPS`` equals
    ``completion`` exactly, where a few ulps of search find one (the
    limits reachable from a large ``now`` are coarser than
    ``completion``'s ulp): a completion on the limit is feasible."""
    deadline = now + completion - _EPS
    for _ in range(8):
        limit = (deadline - now) + _EPS
        if limit == completion:
            break
        deadline = float(np.nextafter(
            deadline, np.inf if limit < completion else -np.inf
        ))
    return deadline


@st.composite
def adversarial_instances(draw):
    """1-12 queries on 1-4 models, or 1-3 on 5-6, at ``now`` 0, 3.7 or
    1234.5678, with equal latencies (finish-time collisions) and downed
    models (+inf busy time) drawn as flags.

    With ``boundary`` drawn, every deadline sits on, or one or two
    ``_EPS`` beside, the completion time of some run of its model
    (busy time plus one to three latencies, added as the DP adds
    them), or makes that completion equal the DP's limit: where the
    loop form's per-model bitset test must agree with the kernel's and
    the reference's per-mask maximum."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 12 if m <= 4 else 3))
    now = draw(st.sampled_from([0.0, 3.7, 1234.5678]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        latencies = np.full(m, 0.05)
    else:
        latencies = rng.uniform(0.01, 0.2, size=m)
    busy = rng.uniform(0.0, 0.1, size=m)
    downed = draw(st.lists(st.integers(0, m - 1), max_size=m, unique=True))
    busy[downed] = np.inf
    queries = random_queries(rng, n, m, now)
    boundary = draw(st.booleans())
    if boundary:
        for query in queries:
            k = int(rng.integers(0, m))
            completion = float(busy[k])
            for _ in range(int(rng.integers(1, 4))):
                completion += float(latencies[k])
            if not np.isfinite(completion):
                continue
            if rng.random() < 0.4:
                query.deadline = tied_deadline(now, completion)
            else:
                query.deadline = now + completion + float(
                    rng.choice(BOUNDARY_OFFSETS)
                )
    return SchedulingInstance(queries, latencies, busy, now=now)


def assert_identical(vec, ref):
    """Bit-exact: decisions, utility and work units all equal (==)."""
    assert [(d.query_id, d.mask) for d in vec.decisions] == [
        (d.query_id, d.mask) for d in ref.decisions
    ]
    assert vec.total_utility == ref.total_utility
    assert vec.work_units == ref.work_units


def assert_forms_agree(instance, **params):
    """The reference, the loop form, the kernel and the dispatched
    ``schedule`` return the same plan, utility, work units and
    ``ScheduleStats``; and each form's plan is the same without
    stats."""
    reference = DPReferenceScheduler(**params)
    scheduler = DPScheduler(**params)
    reference.collect_stats = True
    expected = reference.schedule(instance)
    expected_stats = reference.last_stats
    for solve in (
        scheduler.schedule_loop, scheduler.schedule_kernel, scheduler.schedule
    ):
        scheduler.collect_stats = True
        assert_identical(solve(instance), expected)
        assert scheduler.last_stats == expected_stats
        scheduler.collect_stats = False
        assert_identical(solve(instance), expected)
    # Mask 0 (skip) is a candidate at every level.
    assert all(masks[0] == 0 for masks in expected_stats.candidate_masks)


class TestVectorizedParity:
    @pytest.mark.parametrize("delta", [0.01, 0.05, 0.25, None])
    def test_randomized_exact_parity(self, delta):
        scheduler = DPScheduler(delta=delta)
        for seed in range(25):
            instance = randomized_instance(seed)
            assert_identical(
                scheduler.schedule_kernel(instance),
                scheduler.schedule_loop(instance),
            )

    def test_parity_with_downed_model(self):
        """A +inf busy time (all of a model's workers crashed) makes
        every mask using it infeasible — never an error."""
        u = np.array([0.0, 0.5, 0.6, 0.9])
        queries = [QueryRequest(i, 0.0, 0.5, u) for i in range(3)]
        instance = SchedulingInstance(
            queries, np.array([0.05, 0.08]), np.array([np.inf, 0.0]),
        )
        scheduler = DPScheduler(delta=0.05)
        vec = scheduler.schedule_kernel(instance)
        assert_identical(vec, scheduler.schedule_loop(instance))
        for decision in vec.decisions:
            assert decision.mask & 1 == 0  # model 0 is unusable

    def test_parity_under_tiny_frontier_cap(self):
        """The cap trims in canonical order in both forms."""
        scheduler = DPScheduler(delta=0.05, max_solutions_per_cell=1)
        for seed in range(8):
            instance = randomized_instance(seed, max_queries=5)
            assert_identical(
                scheduler.schedule_kernel(instance),
                scheduler.schedule_loop(instance),
            )

    @settings(max_examples=60, deadline=None)
    @given(
        instance=adversarial_instances(),
        delta=st.sampled_from([0.01, 0.05, 0.25, None]),
        cap=st.sampled_from([1, 2, 8]),
    )
    def test_forms_agree_on_adversarial_instances(self, instance, delta, cap):
        assert_forms_agree(
            instance, delta=delta, max_solutions_per_cell=cap
        )

    @pytest.mark.parametrize("n_queries", range(1, 9))
    def test_forms_agree_on_paper_shaped_instances(self, n_queries):
        """The paper's workload: three models, one to eight queries,
        monotone utilities."""
        for seed in range(5):
            assert_forms_agree(random_instance(n_queries, 3, seed), delta=0.01)


class TestApproximationBound:
    def test_theorem3_bound_against_bruteforce(self):
        """δ = ε/N must keep DP within (1 − ε) of the true optimum."""
        epsilon = 0.1
        dp = DPScheduler(delta=None, epsilon=epsilon)
        brute = BruteForceScheduler()
        for seed in range(20):
            instance = randomized_instance(seed, max_queries=4, max_models=3)
            achieved = dp.schedule(instance).total_utility
            optimum = brute.schedule(instance).total_utility
            assert achieved >= (1.0 - epsilon) * optimum - 1e-9


class TestFinalTieBreak:
    def make_boundary_instance(self):
        """Rewards 0.19 and 0.11 both floor to cell 1 at δ = 0.1: the
        quantised table cannot tell them apart."""
        u = np.array([0.0, 0.19, 0.11, 0.19])
        q = QueryRequest(0, 0.0, 5.0, u)
        return SchedulingInstance(
            [q], np.array([0.09, 0.02]), np.zeros(2),
        )

    @pytest.mark.parametrize(
        "scheduler_cls", [DPScheduler, DPReferenceScheduler]
    )
    def test_unquantised_reward_breaks_quantised_tie(self, scheduler_cls):
        """Mask 2 finishes sooner (sum of finish times 0.02 vs 0.09) but
        pays 0.11; mask 1 pays 0.19. Both land in quantised cell 1, and
        selecting by frontier position alone would return the strictly
        worse plan — the final tie-break must compare true rewards."""
        instance = self.make_boundary_instance()
        result = scheduler_cls(delta=0.1).schedule(instance)
        assert result.mask_for(0) == 1
        assert result.total_utility == pytest.approx(0.19)


class TestSharedInstanceTables:
    def test_quantised_utilities_cached_per_step(self):
        q = QueryRequest(0, 0.0, 1.0, np.array([0.0, 0.35, 0.52, 0.89]))
        first = q.quantised_utilities(0.1)
        assert first is q.quantised_utilities(0.1)  # memoized
        assert first is not q.quantised_utilities(0.05)
        np.testing.assert_array_equal(first, [0, 3, 5, 8])

    def test_mask_tables_shared_across_instances(self):
        a = randomized_instance(1, max_models=3)
        b = SchedulingInstance(
            a.queries, a.latencies, a.busy_until, now=a.now,
        )
        assert a.masks is b.masks  # one lru-cached table per ensemble size
