"""DecisionLog -> feature-matrix distillation pipeline (the DP oracle's
imitation-learning data path).

The vectorized Alg. 1 DP is exact but exponential in ensemble size; at
buffer >= 64 with 6+ models one ``schedule()`` call costs tens of
seconds and dominates step time. Following NRL's CRM-task-scheduling
(a supervised policy learned from branch-and-bound schedules) and
"Robust Scheduling with GFlowNets", this module turns the opt-in
:class:`~repro.obs.explain.DecisionLog` from an all-DP serving run into
supervised training data: one row per (scheduling round, query) with
the features the scheduler saw — difficulty score, deadline slack,
position and size of the buffer snapshot, per-model ``busy_until``
backlog and per-model headroom — and the DP-chosen subset mask as the
per-model-bit target. :func:`distill_policy` fits both a per-bit
:class:`~repro.trees.gbdt.GradientBoostingRegressor` ensemble and a
multi-output :class:`~repro.nn.models.MLPRegressor` on that matrix,
keeps whichever wins exact-mask validation accuracy, trains the
predicted-regret model that gates the serve-time DP fallback, and
freezes everything into a
:class:`~repro.scheduling.policy_fast.PolicyModel` artifact.

Feature extraction is deterministic: rounds come out ordered by
``decided_at`` (the server serializes scheduler invocations, so round
times are strictly increasing) and queries within a round keep the
committed plan's EDF order, so the same log — in memory or round-tripped
through JSONL — always yields the same matrices. The feature-name
schema is locked by tests so logged runs stay trainable across
versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.obs.explain import DecisionLog
from repro.scheduling.problem import QueryRequest, SchedulingInstance
from repro.scheduling.subsets import mask_tables
from repro.trees.gbdt import GradientBoostingRegressor, pack_regressors

__all__ = [
    "BUSY_CLAMP",
    "FEATURE_BASE",
    "REGRET_FEATURE_NAMES",
    "SchedulingRound",
    "feature_names",
    "query_features",
    "extract_rounds",
    "round_feature_matrix",
    "build_training_set",
    "round_instance",
    "regret_features",
    "distill_policy",
]

#: Finite stand-in for an infinite backlog (a downed model): features
#: must stay finite for the tree/MLP substrates, and any value beyond
#: every reachable deadline is equivalent to "never".
BUSY_CLAMP = 1e6

#: Per-query scalar features, before the per-model blocks.
FEATURE_BASE = ("score", "slack", "batch_index", "batch_size")

#: Instance-level features of the regret model that gates the DP
#: fallback (see :func:`regret_features`).
REGRET_FEATURE_NAMES = (
    "n_queries",
    "score_mean",
    "score_max",
    "slack_min",
    "slack_mean",
    "busy_mean",
    "busy_max",
    "policy_utility",
    "bound_utility",
    "bound_gap",
)

#: DecisionRecord actions that belong to a buffered scheduling round.
#: ``fast_path``/``immediate`` decisions never ran the DP, so they
#: carry no oracle label.
_ROUND_ACTIONS = ("dispatch", "reject", "requeue", "fallback")


def feature_names(n_models: int) -> List[str]:
    """The locked per-query feature schema for an ``n_models`` ensemble.

    ``busy_m{k}`` is model ``k``'s committed backlog at decision time
    (clamped to :data:`BUSY_CLAMP`); ``headroom_m{k}`` is
    ``slack - busy_m{k} - latency_k`` — positive iff model ``k`` alone
    could still meet the deadline, the single most predictive bit-k
    signal.
    """
    if n_models < 1:
        raise ValueError(f"n_models must be >= 1, got {n_models}")
    return (
        list(FEATURE_BASE)
        + [f"busy_m{k}" for k in range(n_models)]
        + [f"headroom_m{k}" for k in range(n_models)]
    )


def query_features(
    score: float,
    slack: float,
    batch_index: int,
    batch_size: int,
    busy: np.ndarray,
    latencies: np.ndarray,
) -> np.ndarray:
    """One feature row in :func:`feature_names` order."""
    busy = np.minimum(np.asarray(busy, dtype=float), BUSY_CLAMP)
    headroom = np.clip(
        slack - busy - np.asarray(latencies, dtype=float),
        -BUSY_CLAMP, BUSY_CLAMP,
    )
    return np.concatenate((
        np.array(
            [score, slack, float(batch_index), float(batch_size)],
            dtype=float,
        ),
        busy,
        headroom,
    ))


@dataclass(frozen=True)
class SchedulingRound:
    """One reconstructed scheduler invocation: the buffer snapshot the
    DP saw, in the committed plan's (EDF) order, with the DP-chosen
    mask per query as the imitation target.

    ``target_masks`` holds the *oracle's* choice: a ``fallback`` record
    means the DP chose mask 0 and the server forced the fastest model
    (``allow_rejection=False``), so its target is 0, not the forced
    mask that was recorded.
    """

    decided_at: float
    batch_size: int
    buffer_depth: int
    busy_until: Tuple[float, ...]
    query_ids: Tuple[int, ...]
    scores: Tuple[float, ...]
    deadlines: Tuple[float, ...]
    actions: Tuple[str, ...]
    target_masks: Tuple[int, ...]

    @property
    def n_queries(self) -> int:
        return len(self.query_ids)


def extract_rounds(log: DecisionLog, n_models: int) -> List[SchedulingRound]:
    """Group a decision log into scheduling rounds.

    The server serializes scheduler invocations (``scheduling_busy``),
    so every buffered round has a distinct, strictly increasing
    ``decided_at``; records within a round arrive in plan order. Records
    from the fast path / immediate policies (no buffer snapshot) and
    records whose ``busy_until`` does not match ``n_models`` (a log from
    a different deployment) are skipped.
    """
    groups: Dict[float, List] = {}
    order: List[float] = []
    for record in log.records:
        if record.action not in _ROUND_ACTIONS or record.batch_size <= 0:
            continue
        if len(record.busy_until) != n_models:
            continue
        key = float(record.decided_at)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(record)
    rounds = []
    for key in sorted(order):
        records = groups[key]
        first = records[0]
        rounds.append(SchedulingRound(
            decided_at=float(first.decided_at),
            batch_size=int(first.batch_size),
            buffer_depth=int(first.buffer_depth),
            busy_until=tuple(float(b) for b in first.busy_until),
            query_ids=tuple(int(r.query_id) for r in records),
            scores=tuple(float(r.score) for r in records),
            deadlines=tuple(float(r.deadline) for r in records),
            actions=tuple(str(r.action) for r in records),
            target_masks=tuple(
                int(r.chosen_mask) if r.action in ("dispatch", "requeue")
                else 0
                for r in records
            ),
        ))
    return rounds


def round_feature_matrix(
    round_: SchedulingRound, latencies: np.ndarray
) -> np.ndarray:
    """Per-query feature rows for one round, teacher-forced: the busy
    vector rolls forward with the *oracle's* masks, exactly the state
    the DP's own plan implies when it reaches each query."""
    latencies = np.asarray(latencies, dtype=float)
    busy = np.array(round_.busy_until, dtype=float)
    rows = np.empty(
        (round_.n_queries, len(feature_names(latencies.shape[0])))
    )
    for i in range(round_.n_queries):
        slack = round_.deadlines[i] - round_.decided_at
        rows[i] = query_features(
            round_.scores[i], slack, i, round_.batch_size, busy, latencies
        )
        mask = round_.target_masks[i]
        if mask:
            member = (mask >> np.arange(latencies.shape[0])) & 1
            busy = busy + np.where(member == 1, latencies, 0.0)
    return rows


def build_training_set(
    log: DecisionLog, latencies: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, List[SchedulingRound], np.ndarray]:
    """``(X, bits, rounds, row_round)``: stacked feature rows, the
    per-model 0/1 target matrix (bit ``k`` of the oracle mask), the
    extracted rounds, and each row's round index."""
    latencies = np.asarray(latencies, dtype=float)
    m = latencies.shape[0]
    rounds = extract_rounds(log, m)
    n_feat = len(feature_names(m))
    if not rounds:
        return (
            np.zeros((0, n_feat)), np.zeros((0, m), dtype=int),
            rounds, np.zeros(0, dtype=int),
        )
    blocks = [round_feature_matrix(r, latencies) for r in rounds]
    X = np.vstack(blocks)
    masks = np.concatenate(
        [np.asarray(r.target_masks, dtype=np.int64) for r in rounds]
    )
    bits = ((masks[:, None] >> np.arange(m)[None, :]) & 1).astype(int)
    row_round = np.concatenate([
        np.full(r.n_queries, i, dtype=int) for i, r in enumerate(rounds)
    ])
    return X, bits, rounds, row_round


def round_instance(
    round_: SchedulingRound,
    latencies: np.ndarray,
    utilities_fn: Callable[[np.ndarray], np.ndarray],
) -> SchedulingInstance:
    """Rebuild the :class:`SchedulingInstance` a round's scheduler saw.

    The log stores each query's difficulty score, not its utility row;
    ``utilities_fn`` (e.g. ``setup.schemble.utilities``) maps scores
    back to ``(n, 2**m)`` reward rows — the pipeline derives utilities
    deterministically from scores, so the reconstruction is exact.
    """
    latencies = np.asarray(latencies, dtype=float)
    rows = np.asarray(
        utilities_fn(np.asarray(round_.scores, dtype=float)), dtype=float
    )
    queries = [
        QueryRequest(
            query_id=round_.query_ids[i],
            # Arrival is not logged (and not used by any scheduler);
            # it only needs to satisfy arrival <= deadline.
            arrival=min(round_.decided_at, round_.deadlines[i]),
            deadline=round_.deadlines[i],
            utilities=rows[i],
            score=round_.scores[i],
        )
        for i in range(round_.n_queries)
    ]
    return SchedulingInstance(
        queries=queries,
        latencies=latencies,
        busy_until=np.array(round_.busy_until, dtype=float),
        now=round_.decided_at,
    )


def regret_features(
    instance: SchedulingInstance, policy_utility: float
) -> np.ndarray:
    """Instance-level features of the predicted-regret gate, in
    :data:`REGRET_FEATURE_NAMES` order.

    ``bound_utility`` is the contention-free optimistic bound: each
    query's best feasible reward against the snapshot backlog alone.
    The DP can never exceed it, so ``bound_gap = bound - policy``
    upper-bounds the true regret — the single strongest regressor
    input.
    """
    n = instance.n_queries
    if n == 0:
        return np.zeros(len(REGRET_FEATURE_NAMES))
    scores = np.array([q.score for q in instance.queries], dtype=float)
    slacks = np.array(
        [q.deadline - instance.now for q in instance.queries], dtype=float
    )
    busy = np.minimum(instance.busy_until, BUSY_CLAMP)
    # Per-mask completion on the snapshot backlog (no contention).
    tables = mask_tables(instance.n_models)
    completion = np.where(
        tables.membership,
        instance.busy_until[None, :] + instance.latencies[None, :],
        -np.inf,
    ).max(axis=1)  # (2**m,); mask 0 -> -inf (always feasible, reward 0)
    bound = 0.0
    for i, query in enumerate(instance.queries):
        feasible = completion <= slacks[i] + 1e-12
        if np.any(feasible):
            bound += float(query.utilities[feasible].max())
    return np.array([
        float(n),
        float(scores.mean()),
        float(scores.max()),
        float(slacks.min()),
        float(slacks.mean()),
        float(busy.mean()),
        float(busy.max()),
        float(policy_utility),
        float(bound),
        float(bound - policy_utility),
    ])


class _BitsGBDT:
    """Per-model-bit gradient-boosted probability heads.

    One least-squares :class:`GradientBoostingRegressor` per ensemble
    member, fit on the 0/1 bit indicator (L2Boost on indicators — the
    predicted value approximates the bit probability). Keeping one
    binary head per model instead of a ``2**m``-class classifier is
    what makes serving O(models): prediction cost grows linearly in
    ensemble size, never exponentially. All heads are packed into one
    :class:`~repro.trees.forest.PackedForest`, so a call scores every
    head's trees in one vectorised pass.
    """

    kind = "gbdt"

    def __init__(self, models: Sequence[GradientBoostingRegressor]):
        self.models = list(models)
        self._forest = pack_regressors(self.models)

    @property
    def n_features(self) -> int:
        return self._forest.n_features

    @classmethod
    def fit(
        cls,
        X: np.ndarray,
        bits: np.ndarray,
        n_estimators: int = 30,
        learning_rate: float = 0.15,
        max_depth: int = 4,
        min_samples_leaf: int = 3,
    ) -> "_BitsGBDT":
        models = []
        for k in range(bits.shape[1]):
            model = GradientBoostingRegressor(
                n_estimators=n_estimators,
                learning_rate=learning_rate,
                max_depth=max_depth,
                min_samples_leaf=min_samples_leaf,
            )
            models.append(model.fit(X, bits[:, k].astype(float)))
        return cls(models)

    def predict_bits(self, X: np.ndarray) -> np.ndarray:
        return np.clip(self._forest.predict(X), 0.0, 1.0)


class _BitsMLP:
    """Multi-output MLP probability head (one sigmoid-less regressor
    over all bits; predictions are clipped into [0, 1])."""

    kind = "mlp"

    def __init__(self, model):
        self.model = model

    @property
    def n_features(self) -> int:
        return self.model.in_features

    @classmethod
    def fit(
        cls,
        X: np.ndarray,
        bits: np.ndarray,
        hidden: Tuple[int, ...] = (32,),
        epochs: int = 120,
        lr: float = 5e-3,
        seed: int = 0,
    ) -> "_BitsMLP":
        from repro.nn.models import MLPRegressor

        model = MLPRegressor(
            in_features=X.shape[1],
            out_features=bits.shape[1],
            hidden=hidden,
            epochs=epochs,
            lr=lr,
            batch_size=min(64, max(8, X.shape[0])),
            seed=seed,
        )
        model.fit(X, bits.astype(float))
        return cls(model)

    def predict_bits(self, X: np.ndarray) -> np.ndarray:
        return np.clip(self.model.predict(np.asarray(X, dtype=float)), 0.0, 1.0)


def _exact_mask_accuracy(bits_model, X, bits) -> float:
    if X.shape[0] == 0:
        return 0.0
    predicted = bits_model.predict_bits(X) > 0.5
    return float(np.all(predicted == (bits > 0), axis=1).mean())


def distill_policy(
    log: DecisionLog,
    latencies: np.ndarray,
    utilities_fn: Callable[[np.ndarray], np.ndarray],
    model: str = "auto",
    val_fraction: float = 0.25,
    seed: int = 0,
    mlp_hidden: Tuple[int, ...] = (32,),
    gbdt_estimators: int = 30,
):
    """Train a frozen fast-path policy from an all-DP decision log.

    Splits rounds (not rows — rows within a round share state) into
    train/validation, fits the requested mask-bit model(s) on the
    training rows, picks the winner by exact-mask validation accuracy,
    then trains the regret regressor: for every round, the label is
    ``oracle plan utility - policy rollout utility`` on the
    reconstructed instance, and the features are the instance-level
    :func:`regret_features` the serve-time gate can compute in
    O(queries * masks).

    Args:
        log: Decision log from a DP-scheduled serving run.
        latencies: Per-model inference times of the logged deployment.
        utilities_fn: ``scores -> (n, 2**m)`` utility rows (the
            pipeline's score-to-reward mapping, e.g.
            ``setup.schemble.utilities``).
        model: ``"auto"`` (fit both, keep the validation winner),
            ``"gbdt"`` or ``"mlp"``.

    Returns:
        A :class:`~repro.scheduling.policy_fast.PolicyModel`.
    """
    from repro.scheduling.policy_fast import PolicyModel, rollout_plan

    if model not in ("auto", "gbdt", "mlp"):
        raise ValueError(f"model must be auto|gbdt|mlp, got {model!r}")
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(
            f"val_fraction must be in (0, 1), got {val_fraction}"
        )
    latencies = np.asarray(latencies, dtype=float)
    m = latencies.shape[0]
    X, bits, rounds, row_round = build_training_set(log, latencies)
    if len(rounds) < 4:
        raise ValueError(
            f"need at least 4 scheduling rounds to distill, got "
            f"{len(rounds)} (run a longer DP-scheduled trace)"
        )
    rng = np.random.default_rng(seed)
    permutation = rng.permutation(len(rounds))
    n_val = max(1, int(round(val_fraction * len(rounds))))
    val_rounds = set(int(i) for i in permutation[:n_val])
    val_rows = np.isin(row_round, sorted(val_rounds))
    X_train, bits_train = X[~val_rows], bits[~val_rows]
    X_val, bits_val = X[val_rows], bits[val_rows]

    candidates = []
    if model in ("auto", "gbdt"):
        candidates.append(_BitsGBDT.fit(
            X_train, bits_train, n_estimators=gbdt_estimators
        ))
    if model in ("auto", "mlp"):
        candidates.append(_BitsMLP.fit(
            X_train, bits_train, hidden=mlp_hidden, seed=seed
        ))
    accuracies = {
        c.kind: _exact_mask_accuracy(c, X_val, bits_val) for c in candidates
    }
    # Deterministic winner: best validation accuracy, GBDT on ties
    # (cheaper to serialize, no epoch-order nondeterminism risk).
    best = max(candidates, key=lambda c: (accuracies[c.kind], c.kind == "gbdt"))

    # Regret labels: oracle plan utility minus the chosen policy's
    # rollout utility, per reconstructed round instance.
    regret_X = np.empty((len(rounds), len(REGRET_FEATURE_NAMES)))
    regret_y = np.empty(len(rounds))
    for i, round_ in enumerate(rounds):
        instance = round_instance(round_, latencies, utilities_fn)
        oracle_utility = sum(
            float(q.utilities[mask])
            for q, mask in zip(instance.queries, round_.target_masks)
        )
        _, policy_utility, _ = rollout_plan(best, instance)
        regret_X[i] = regret_features(instance, policy_utility)
        regret_y[i] = oracle_utility - policy_utility
    regret_model = GradientBoostingRegressor(
        n_estimators=30, learning_rate=0.1, max_depth=3, min_samples_leaf=2
    ).fit(regret_X, regret_y)
    regret_mae = float(
        np.abs(regret_model.predict(regret_X) - regret_y).mean()
    )

    metadata = {
        "rounds": len(rounds),
        "rows": int(X.shape[0]),
        "val_rounds": len(val_rounds),
        "val_rows": int(X_val.shape[0]),
        "val_accuracy": accuracies,
        "chosen": best.kind,
        "mean_regret": float(regret_y.mean()),
        "max_regret": float(regret_y.max()),
        "regret_mae": regret_mae,
        "seed": int(seed),
    }
    return PolicyModel(
        n_models=m,
        feature_names=feature_names(m),
        regret_feature_names=list(REGRET_FEATURE_NAMES),
        bits_model=best,
        regret_model=regret_model,
        metadata=metadata,
    )
