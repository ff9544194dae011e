"""Learned fast-path scheduler: an O(buffer * models) policy distilled
from the DP oracle, behind a size gate and a predicted-regret DP
fallback.

:class:`LearnedScheduler` serves the same ``schedule(instance)``
contract as the DP, but replaces the exponential table build with one
EDF rollout: for each query it predicts the per-model bit probabilities
from the features in :mod:`repro.scheduling.distill`, repairs the
predicted subset against the rolled-forward backlog (dropping the
least-confident member until the deadline is met), and commits. Cost is
``O(n * m)`` model evaluations plus ``O(m)`` repair steps per query —
no ``2**m`` table, so step time at buffer >= 64 with 6 models drops
from tens of seconds to milliseconds (``BENCH_policy.json``).

The rollout only pays off on instances the DP finds expensive. The
**size gate** hands every instance the DP serves in its loop form
(:func:`repro.scheduling.dp.in_loop_form`: ``n_queries * 2**n_models
<= LOOP_FORM_MAX_SIZE``, up to six queries on three models) to the
exact DP before any featurizing, and returns the DP's result verbatim;
there the DP is faster than the rollout and exact.

Quality is insured by the **predicted-regret gate**: the artifact also
carries a regressor trained on ``oracle - policy`` utility gaps; when
the estimated gap for the current buffer reaches
``regret_threshold``, the scheduler throws the plan away and runs the
exact DP instead, so worst-case quality is DP quality. With
``regret_threshold <= 0`` the rollout is skipped entirely and every
invocation is exact DP — the result object is the fallback's verbatim
(same decisions, utility *and* work units), so a threshold-0 serving
run is bit-identical to an all-DP run.

:class:`PolicyModel` is the frozen artifact: the chosen mask-bit model
(per-bit GBDT heads or a multi-output MLP), the regret regressor, the
locked feature schemas and training metadata, JSON-serialized with
``save()``/``load()`` so a distilled policy outlives the process that
trained it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.scheduling.distill import (
    REGRET_FEATURE_NAMES,
    _BitsGBDT,
    _BitsMLP,
    feature_names,
    query_features,
    regret_features,
)
from repro.scheduling.dp import DPScheduler, in_loop_form
from repro.scheduling.orders import edf_order
from repro.scheduling.problem import (
    ScheduleDecision,
    ScheduleResult,
    SchedulingInstance,
)
from repro.trees.gbdt import GradientBoostingRegressor

__all__ = ["PolicyModel", "LearnedScheduler", "rollout_plan"]

_EPS = 1e-12

_SCHEMA = "repro.policy_model.v1"


# --- artifact serialization ----------------------------------------------

def _bits_model_to_dict(bits_model) -> Dict[str, object]:
    if bits_model.kind == "gbdt":
        return {
            "kind": "gbdt",
            "models": [m.to_dict() for m in bits_model.models],
        }
    if bits_model.kind == "mlp":
        params = bits_model.model.network.parameters()
        # Parameters alternate (weight, bias) per Dense layer in forward
        # order; the hidden widths are every weight's output dim but the
        # last.
        weights = [p.value for p in params if p.value.ndim == 2]
        return {
            "kind": "mlp",
            "in_features": bits_model.model.in_features,
            "out_features": bits_model.model.out_features,
            "hidden": [int(w.shape[1]) for w in weights[:-1]],
            "params": [p.value.tolist() for p in params],
        }
    raise ValueError(f"unknown bits model kind {bits_model.kind!r}")


def _bits_model_from_dict(state: Dict[str, object]):
    kind = state["kind"]
    if kind == "gbdt":
        return _BitsGBDT([
            GradientBoostingRegressor.from_dict(m) for m in state["models"]
        ])
    if kind == "mlp":
        from repro.nn.models import MLPRegressor

        model = MLPRegressor(
            in_features=int(state["in_features"]),
            out_features=int(state["out_features"]),
            hidden=tuple(int(h) for h in state["hidden"]),
            dropout=0.0,
            seed=0,
        )
        params = model.network.parameters()
        saved = state["params"]
        if len(params) != len(saved):
            raise ValueError(
                f"artifact has {len(saved)} parameter tensors, network "
                f"expects {len(params)}"
            )
        for parameter, value in zip(params, saved):
            value = np.asarray(value, dtype=float)
            if value.shape != parameter.value.shape:
                raise ValueError(
                    f"parameter shape mismatch: artifact {value.shape} vs "
                    f"network {parameter.value.shape}"
                )
            parameter.value = value
            parameter.grad = np.zeros_like(value)
        wrapped = _BitsMLP(model)
        return wrapped
    raise ValueError(f"unknown bits model kind {kind!r}")


@dataclass
class PolicyModel:
    """Frozen learned-scheduler artifact (see module docstring).

    Attributes:
        n_models: Ensemble size the policy was trained for; instances
            of any other size always fall back to the DP.
        feature_names: Locked per-query feature schema
            (:func:`repro.scheduling.distill.feature_names`).
        regret_feature_names: Locked instance-level schema of the
            regret gate.
        bits_model: Per-model bit-probability model (GBDT heads or MLP).
        regret_model: Regressor estimating ``oracle - policy`` utility
            gap from :func:`~repro.scheduling.distill.regret_features`.
        metadata: Training provenance (round/row counts, validation
            accuracy per candidate, chosen kind, regret stats).
    """

    n_models: int
    feature_names: List[str]
    regret_feature_names: List[str]
    bits_model: object
    regret_model: GradientBoostingRegressor
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        expected = feature_names(self.n_models)
        if list(self.feature_names) != expected:
            raise ValueError(
                f"feature_names do not match the locked schema for "
                f"{self.n_models} models: {self.feature_names} != {expected}"
            )
        if list(self.regret_feature_names) != list(REGRET_FEATURE_NAMES):
            raise ValueError(
                "regret_feature_names do not match the locked schema"
            )
        for head, width, schema in (
            ("bits model", self.bits_model.n_features, expected),
            ("regret model", self.regret_model.n_features_,
             REGRET_FEATURE_NAMES),
        ):
            if width != len(schema):
                raise ValueError(
                    f"{head} reads {width} features, the locked schema "
                    f"has {len(schema)}"
                )

    @property
    def kind(self) -> str:
        return self.bits_model.kind

    def predict_bits(self, X: np.ndarray) -> np.ndarray:
        """Per-model selection probabilities, shape ``(n, n_models)``."""
        return self.bits_model.predict_bits(X)

    def predict_regret(self, features: np.ndarray) -> float:
        """Estimated utility gap vs the DP (clamped to >= 0)."""
        value = float(
            self.regret_model.predict(
                np.asarray(features, dtype=float)[None, :]
            )[0]
        )
        return max(0.0, value)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": _SCHEMA,
            "n_models": self.n_models,
            "feature_names": list(self.feature_names),
            "regret_feature_names": list(self.regret_feature_names),
            "bits_model": _bits_model_to_dict(self.bits_model),
            "regret_model": self.regret_model.to_dict(),
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, state: Dict[str, object]) -> "PolicyModel":
        if state.get("schema") != _SCHEMA:
            raise ValueError(
                f"not a policy model artifact (schema "
                f"{state.get('schema')!r}, expected {_SCHEMA!r})"
            )
        return cls(
            n_models=int(state["n_models"]),
            feature_names=list(state["feature_names"]),
            regret_feature_names=list(state["regret_feature_names"]),
            bits_model=_bits_model_from_dict(state["bits_model"]),
            regret_model=GradientBoostingRegressor.from_dict(
                state["regret_model"]
            ),
            metadata=dict(state.get("metadata", {})),
        )

    def save(self, path: Union[str, Path]) -> Path:
        """Write the artifact as JSON (parent dirs are created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict()) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PolicyModel":
        """Load an artifact written by :meth:`save`.

        Raises ``ValueError`` on a malformed artifact (wrong schema tag,
        a head whose width differs from the locked feature schema, or a
        malformed tree; see
        :meth:`~repro.trees.decision_tree.DecisionTreeRegressor.from_dict`).
        """
        return cls.from_dict(json.loads(Path(path).read_text()))


# --- serve-time rollout --------------------------------------------------

def rollout_plan(
    bits_model, instance: SchedulingInstance
) -> Tuple[List[ScheduleDecision], float, int]:
    """One EDF pass of the learned policy over ``instance``.

    Returns ``(decisions, total_utility, work_units)`` with decisions in
    EDF order (the DP's result order). Work units follow the unified
    accounting rule: one unit per non-empty candidate subset evaluated
    for feasibility — the predicted mask plus each repair step, at most
    ``n_models`` per query; the skip is free.

    The repair loop first removes members that cannot individually meet
    the deadline (including downed models with infinite backlog), then
    drops the lowest-probability member until the subset's completion
    time fits the deadline. A surviving subset with zero reward is
    demoted to a skip — running it would burn capacity for nothing,
    which the oracle never does.
    """
    n = instance.n_queries
    if n == 0:
        return [], 0.0, 0
    order = edf_order(instance.queries)
    latencies = instance.latencies
    m = latencies.shape[0]
    model_indices = np.arange(m)
    busy = instance.busy_until.astype(float, copy=True)
    decisions: List[ScheduleDecision] = []
    total = 0.0
    units = 0
    for position, qi in enumerate(order):
        query = instance.queries[qi]
        slack = query.deadline - instance.now
        probs = bits_model.predict_bits(
            query_features(
                query.score, slack, position, n, busy, latencies
            )[None, :]
        )[0]
        selected = probs > 0.5
        # Members that can never finish in time alone can never be in
        # a feasible subset (completion is a max over members).
        selected &= busy + latencies <= slack + _EPS
        mask = 0
        if np.any(selected):
            units += 1
            while True:
                completion = float((busy + latencies)[selected].max())
                if completion <= slack + _EPS:
                    break
                drop = model_indices[selected][
                    int(np.argmin(probs[selected]))
                ]
                selected[drop] = False
                if not np.any(selected):
                    break
                units += 1
            if np.any(selected):
                mask = int(np.sum(1 << model_indices[selected]))
        if mask and float(query.utilities[mask]) <= _EPS:
            mask = 0
        if mask:
            busy = busy + np.where(selected, latencies, 0.0)
            total += float(query.utilities[mask])
        decisions.append(
            ScheduleDecision(query_id=query.query_id, mask=mask)
        )
    return decisions, total, units


class LearnedScheduler:
    """Drop-in scheduler serving the distilled policy with a DP safety
    net (see module docstring).

    Args:
        model: Frozen :class:`PolicyModel` artifact.
        regret_threshold: Estimated utility gap (same units as query
            utilities, summed over the buffer) at which a plan is
            discarded for the exact DP. ``<= 0`` disables the fast path
            entirely: every call is exact DP and returns the fallback's
            result verbatim. ``inf`` disables the regret gate only: the
            size gate and the structural fallback still hand instances
            to the DP.
        fallback: The exact scheduler to fall back to (default: a
            :class:`~repro.scheduling.dp.DPScheduler` with its default
            quantisation) — use the same δ as the all-DP baseline for
            threshold-0 bit-exactness.

    Each call is served one of three ways, counted apart:

    * ``size_routed`` — the size gate handed the instance to the DP
      before featurizing (returns the DP's result verbatim);
    * ``fallbacks`` — the instance was offered to the fast path and the
      DP served it: threshold ``<= 0``, a model-count mismatch, or the
      regret gate fired;
    * the rest — the rollout's plan was served.

    ``invocations`` counts every call, and :attr:`fallback_rate` is
    ``fallbacks`` over the calls offered to the fast path
    (``invocations - size_routed``). ``last_size_routed``,
    ``last_used_fallback`` and ``last_predicted_regret`` describe the
    last call; the server's ``sched_fallback`` span reads them. The
    explain/profile hooks (``collect_stats`` / ``profile`` /
    ``last_stats`` / ``last_phase_wall``) delegate to the fallback DP,
    so explained or profiled runs keep working: after any call the DP
    served they expose the DP's numbers, and after a fast-path serve
    they are ``None``.
    """

    name = "learned"

    def __init__(
        self,
        model: PolicyModel,
        regret_threshold: float = 0.5,
        fallback: Optional[DPScheduler] = None,
    ):
        if not isinstance(model, PolicyModel):
            raise TypeError(
                f"model must be a PolicyModel, got {type(model).__name__}"
            )
        self.model = model
        self.regret_threshold = float(regret_threshold)
        self.fallback = fallback if fallback is not None else DPScheduler()
        self.invocations = 0
        self.size_routed = 0
        self.fallbacks = 0
        self.last_size_routed = False
        self.last_used_fallback = False
        self.last_predicted_regret = 0.0

    # Explain/profile hooks delegate to the fallback DP so the server's
    # hasattr-based opt-ins see one coherent scheduler.
    @property
    def collect_stats(self) -> bool:
        return self.fallback.collect_stats

    @collect_stats.setter
    def collect_stats(self, value: bool) -> None:
        self.fallback.collect_stats = bool(value)

    @property
    def profile(self) -> bool:
        return self.fallback.profile

    @profile.setter
    def profile(self, value: bool) -> None:
        self.fallback.profile = bool(value)

    @property
    def last_stats(self):
        """DP frontier stats when the DP served the last call, else
        None."""
        if self.last_used_fallback or self.last_size_routed:
            return self.fallback.last_stats
        return None

    @property
    def last_phase_wall(self):
        if self.last_used_fallback or self.last_size_routed:
            return self.fallback.last_phase_wall
        return None

    @property
    def fallback_rate(self) -> float:
        """Fraction of the calls offered to the fast path (every call
        the size gate let through) that the exact DP served."""
        offered = self.invocations - self.size_routed
        if offered == 0:
            return 0.0
        return self.fallbacks / offered

    def _fall_back(
        self, instance: SchedulingInstance, extra_units: int
    ) -> ScheduleResult:
        self.fallbacks += 1
        self.last_used_fallback = True
        result = self.fallback.schedule(instance)
        if extra_units:
            # The abandoned rollout's candidate evaluations still
            # happened; charge them on top of the DP's own work.
            return ScheduleResult(
                decisions=result.decisions,
                total_utility=result.total_utility,
                work_units=result.work_units + extra_units,
            )
        # Verbatim result: at threshold <= 0 the whole run must be
        # bit-identical to an all-DP run, including work units.
        return result

    def schedule(self, instance: SchedulingInstance) -> ScheduleResult:
        """Fast-path plan, or the exact DP when a gate fires."""
        self.invocations += 1
        self.last_size_routed = False
        self.last_used_fallback = False
        self.last_predicted_regret = 0.0
        if (
            self.regret_threshold <= 0.0
            or instance.n_models != self.model.n_models
        ):
            return self._fall_back(instance, extra_units=0)
        if in_loop_form(instance):
            # The DP's loop form is faster than the rollout here, and
            # exact: its result is served verbatim.
            self.size_routed += 1
            self.last_size_routed = True
            return self.fallback.schedule(instance)
        decisions, total, units = rollout_plan(self.model, instance)
        estimate = self.model.predict_regret(
            regret_features(instance, total)
        )
        self.last_predicted_regret = estimate
        if estimate >= self.regret_threshold:
            return self._fall_back(instance, extra_units=units)
        return ScheduleResult(
            decisions=decisions, total_utility=total, work_units=units
        )
