"""Shared synthetic data for the scheduling tests.

``random_instance`` draws the paper-shaped instances of the DP tests:
one to three models with the text-matching ensemble's latency spread
and monotone utilities. The rest is a fixed 3-model deployment whose
utility rows derive deterministically from a per-query difficulty
score — the property the real pipeline has and distillation relies on
to reconstruct logged instances exactly.
Not collected by pytest (no ``test_`` prefix).
"""

import numpy as np

from repro.obs.explain import DecisionLog, DecisionRecord
from repro.scheduling.dp import DPScheduler
from repro.scheduling.problem import QueryRequest, SchedulingInstance

LATENCIES3 = np.array([0.02, 0.05, 0.09])
QUALITY3 = np.array([0.5, 0.65, 0.8])


def monotone_utilities(rng, m):
    """Random utilities satisfying diminishing marginal utility."""
    singles = np.sort(rng.uniform(0.3, 0.8, m))
    u = np.zeros(1 << m)
    for mask in range(1, 1 << m):
        members = [k for k in range(m) if mask >> k & 1]
        u[mask] = min(
            1.0, max(singles[k] for k in members) + 0.08 * (len(members) - 1)
        )
    return u


def random_instance(n, m, seed, horizon=(0.1, 0.3)):
    """``n`` queries on ``m <= 3`` models with monotone utilities."""
    rng = np.random.default_rng(seed)
    latencies = np.array([0.02, 0.07, 0.09][:m])
    queries = []
    for i in range(n):
        arrival = float(rng.uniform(0, 0.05))
        deadline = arrival + float(rng.uniform(*horizon))
        queries.append(
            QueryRequest(
                i, arrival, deadline, monotone_utilities(rng, m),
                score=float(rng.uniform(0, 1)),
            )
        )
    busy = rng.uniform(0, 0.05, m)
    return SchedulingInstance(queries, latencies, busy, now=0.0)


def synthetic_utilities(scores):
    """Deterministic ``scores -> (n, 8)`` utility rows: a mask's reward
    is its members' combined coverage scaled by difficulty, rounded to
    two decimals so quantised ties occur."""
    scores = np.asarray(scores, dtype=float)
    member = (
        (np.arange(8)[:, None] >> np.arange(3)[None, :]) & 1
    ).astype(bool)
    coverage = 1.0 - np.prod(
        np.where(member, 1.0 - QUALITY3[None, :], 1.0), axis=1
    )
    rows = np.round(coverage[None, :] * (0.4 + 0.6 * scores[:, None]), 2)
    rows[:, 0] = 0.0
    return rows


def synthetic_instance(rng, n_queries, now=0.0, first_qid=0,
                       downed_model=None):
    """One random 3-model instance with score-derived utility rows."""
    busy = rng.uniform(0.0, 0.05, size=3)
    if downed_model is not None:
        busy[downed_model] = np.inf
    queries = []
    for j in range(n_queries):
        score = float(rng.uniform(0.0, 1.0))
        queries.append(QueryRequest(
            query_id=first_qid + j,
            arrival=now,
            deadline=now + float(rng.uniform(0.08, 0.6)),
            utilities=synthetic_utilities([score])[0],
            score=score,
        ))
    return SchedulingInstance(
        queries=queries, latencies=LATENCIES3, busy_until=busy, now=now,
    )


def synthetic_log(n_rounds=12, seed=0):
    """A DecisionLog of DP-solved synthetic rounds, one round per
    instance — the oracle data an all-DP serving run would log."""
    rng = np.random.default_rng(seed)
    dp = DPScheduler(delta=0.05)
    log = DecisionLog()
    qid = 0
    for i in range(n_rounds):
        now = 5.0 * (i + 1)
        n = int(rng.integers(3, 7))
        instance = synthetic_instance(rng, n, now=now, first_qid=qid)
        qid += n
        by_id = {q.query_id: q for q in instance.queries}
        for decision in dp.schedule(instance).decisions:
            query = by_id[decision.query_id]
            log.add(DecisionRecord(
                query_id=decision.query_id,
                decided_at=now,
                committed_at=now,
                action="dispatch" if decision.mask else "reject",
                chosen_mask=decision.mask,
                score=query.score,
                deadline=query.deadline,
                batch_size=n,
                buffer_depth=0,
                busy_until=[float(b) for b in instance.busy_until],
            ))
    return log
