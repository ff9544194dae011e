"""Learned fast-path scheduler: bit-exact fallback, the size gate,
feasible rollouts, artifact round-trip."""

import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.runner import (
    RunSpec,
    make_workload,
    run_policy,
    run_spec,
)
from repro.experiments.trace_segments import make_day_trace
from repro.obs.explain import DecisionLog
from repro.obs.tracer import RecordingTracer
from repro.scheduling import policy_fast
from repro.scheduling.distill import REGRET_FEATURE_NAMES, distill_policy
from repro.scheduling.dp import LOOP_FORM_MAX_SIZE, DPScheduler
from repro.scheduling.policy_fast import (
    LearnedScheduler,
    PolicyModel,
    rollout_plan,
)
from repro.scheduling.problem import evaluate_schedule
from repro.scheduling.subsets import mask_contains

from tests.scheduling._synthetic import (
    LATENCIES,
    synthetic_instance,
    synthetic_log,
    synthetic_utilities,
)

#: Fewest queries a 3-model instance needs to pass the size gate and
#: reach the rollout (``n << 3 > LOOP_FORM_MAX_SIZE``).
ABOVE_GATE = (LOOP_FORM_MAX_SIZE >> 3) + 1

#: The frozen text_matching policy ``bench_policy_distill.py`` distils
#: (``perfbench/`` serves a sha256-pinned copy of it).
ARTIFACT = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "results" / "policy_text_matching.json"
)


@pytest.fixture(scope="module", params=["gbdt", "mlp"])
def model3(request):
    """One distilled 3-model policy per substrate."""
    return distill_policy(
        synthetic_log(n_rounds=16, seed=0),
        np.array([0.02, 0.05, 0.09]),
        synthetic_utilities,
        model=request.param,
        seed=0,
    )


def assert_identical(a, b):
    assert [(d.query_id, d.mask) for d in a.decisions] == [
        (d.query_id, d.mask) for d in b.decisions
    ]
    assert a.total_utility == b.total_utility
    assert a.work_units == b.work_units


class TestThresholdZeroIsExactDP:
    def test_bit_identical_results(self, model3):
        # threshold <= 0 skips the rollout entirely and returns the
        # fallback DP's result verbatim — including work units.
        scheduler = LearnedScheduler(
            model3, regret_threshold=0.0,
            fallback=DPScheduler(delta=0.05),
        )
        dp = DPScheduler(delta=0.05)
        rng = np.random.default_rng(11)
        for i in range(8):
            instance = synthetic_instance(
                rng, int(rng.integers(2, 7)),
                downed_model=1 if i % 3 == 0 else None,
            )
            assert_identical(
                scheduler.schedule(instance), dp.schedule(instance)
            )
            assert scheduler.last_used_fallback
        assert scheduler.fallback_rate == 1.0


class TestFastPathRollouts:
    def test_plans_are_feasible_and_accounted(self, model3):
        # threshold=inf disables the regret gate and every instance
        # sits above the size gate: every plan comes from the learned
        # rollout, whose utility must match the consistent-order
        # evaluator exactly (the repair loop guarantees feasibility).
        scheduler = LearnedScheduler(
            model3, regret_threshold=float("inf")
        )
        rng = np.random.default_rng(7)
        for _ in range(8):
            instance = synthetic_instance(
                rng, int(rng.integers(ABOVE_GATE, ABOVE_GATE + 6))
            )
            result = scheduler.schedule(instance)
            assert not scheduler.last_used_fallback
            assert result.total_utility == pytest.approx(
                evaluate_schedule(instance, result.decisions)
            )
            assert result.work_units > 0
        assert scheduler.fallback_rate == 0.0

    def test_downed_model_never_scheduled(self, model3):
        scheduler = LearnedScheduler(
            model3, regret_threshold=float("inf")
        )
        rng = np.random.default_rng(23)
        for _ in range(6):
            instance = synthetic_instance(
                rng, ABOVE_GATE + 1, downed_model=2
            )
            result = scheduler.schedule(instance)
            assert all(
                not mask_contains(d.mask, 2)
                for d in result.decisions if d.mask
            )

    def test_structural_mismatch_falls_back(self, model3):
        # An instance from a different deployment (2 models, policy
        # trained on 3) cannot be featurized — exact DP takes over.
        from repro.scheduling.problem import (
            QueryRequest,
            SchedulingInstance,
        )

        utilities = np.array([0.0, 0.3, 0.5, 0.8])
        instance = SchedulingInstance(
            queries=[QueryRequest(
                query_id=0, arrival=0.0, deadline=0.5,
                utilities=utilities,
            )],
            latencies=np.array([0.02, 0.05]),
            busy_until=np.zeros(2),
        )
        scheduler = LearnedScheduler(
            model3, regret_threshold=float("inf"),
            fallback=DPScheduler(delta=0.05),
        )
        result = scheduler.schedule(instance)
        assert scheduler.last_used_fallback
        assert_identical(result, DPScheduler(delta=0.05).schedule(instance))

    def test_gate_reports_predicted_regret(self, model3):
        scheduler = LearnedScheduler(model3, regret_threshold=0.5)
        rng = np.random.default_rng(3)
        scheduler.schedule(synthetic_instance(rng, ABOVE_GATE + 1))
        assert scheduler.last_predicted_regret >= 0.0
        assert scheduler.invocations == 1


def _rollout_forbidden(*args, **kwargs):
    raise AssertionError("rollout_plan ran below the size gate")


@pytest.fixture(scope="module")
def gate_models():
    """One distilled policy per ensemble size the size-gate sweep uses
    (GBDT only: the gate runs before the bit heads are read)."""
    return {
        m: distill_policy(
            synthetic_log(n_rounds=12, seed=0, n_models=m),
            LATENCIES[:m],
            partial(synthetic_utilities, n_models=m),
            model="gbdt",
            seed=0,
        )
        for m in (2, 3, 4)
    }


class TestSizeGate:
    """Every instance the DP serves in its loop form goes to the DP
    before featurizing; larger ones reach the rollout."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_gate_matches_the_dp_loop_form_bound(
        self, m, gate_models, monkeypatch
    ):
        bound = LOOP_FORM_MAX_SIZE >> m
        rng = np.random.default_rng(m)
        for n in range(1, bound + 4):
            instance = synthetic_instance(rng, n, n_models=m)
            scheduler = LearnedScheduler(
                gate_models[m], regret_threshold=float("inf"),
                fallback=DPScheduler(delta=0.05),
            )
            scheduler.collect_stats = True
            if n <= bound:
                monkeypatch.setattr(
                    policy_fast, "rollout_plan", _rollout_forbidden
                )
                dp = DPScheduler(delta=0.05)
                dp.collect_stats = True
                assert_identical(
                    scheduler.schedule(instance), dp.schedule(instance)
                )
                assert (scheduler.invocations, scheduler.size_routed,
                        scheduler.fallbacks) == (1, 1, 0)
                assert scheduler.last_size_routed
                assert not scheduler.last_used_fallback
                assert scheduler.last_stats == dp.last_stats
                assert scheduler.fallback_rate == 0.0
            else:
                sizes = []

                def counted(model, instance, _rollout=rollout_plan):
                    sizes.append(instance.n_queries)
                    return _rollout(model, instance)

                monkeypatch.setattr(policy_fast, "rollout_plan", counted)
                scheduler.schedule(instance)
                assert sizes == [n]
                assert scheduler.size_routed == 0
                assert not scheduler.last_size_routed
                assert scheduler.last_stats is None

    def test_light_load_run_is_all_dp(self, tm_setup):
        # At the default load no buffer passes six queries on three
        # models, so a learned run serves exactly what an all-DP run
        # serves.
        trace = make_day_trace(tm_setup, duration=8.0, seed=5)
        workload = make_workload(
            tm_setup, trace, deadline=min(tm_setup.deadline_grid), seed=6
        )
        policy = tm_setup.policies()["schemble"]
        delta = tm_setup.schemble.delta
        learned = LearnedScheduler(
            PolicyModel.load(ARTIFACT), regret_threshold=0.5,
            fallback=DPScheduler(delta=delta),
        )
        runs = [
            run_policy(
                tm_setup, policy.with_scheduler(scheduler), workload,
                policy_name="schemble",
            )
            for scheduler in (learned, DPScheduler(delta=delta))
        ]
        assert learned.invocations > 0
        assert learned.size_routed == learned.invocations
        assert runs[0].records == runs[1].records
        assert runs[0].scheduler_work_units == runs[1].scheduler_work_units

    def test_traced_counters_partition_invocations(self, tm_setup):
        # An overloaded burst at a tight regret threshold: some buffers
        # pass the gate, and of those some fall back.
        capacity = 1.0 / float(tm_setup.latencies.max())
        trace = make_day_trace(
            tm_setup, duration=8.0, base_rate=3 * 2.5 * capacity / 24.0,
            seed=5,
        )
        workload = make_workload(
            tm_setup, trace, deadline=min(tm_setup.deadline_grid), seed=6
        )
        learned = LearnedScheduler(
            PolicyModel.load(ARTIFACT), regret_threshold=0.03,
            fallback=DPScheduler(delta=tm_setup.schemble.delta),
        )
        tracer = RecordingTracer()
        run_policy(
            tm_setup,
            tm_setup.policies()["schemble"].with_scheduler(learned),
            workload, policy_name="schemble", tracer=tracer,
        )
        counter = tracer.metrics.counter
        traced = [
            int(counter(name).value)
            for name in ("sched.size_routed", "sched.fallbacks",
                         "sched.fast_served")
        ]
        invocations = learned.invocations
        assert sum(traced) == counter("scheduler.invocations").value
        assert traced == [
            learned.size_routed,
            learned.fallbacks,
            invocations - learned.size_routed - learned.fallbacks,
        ]
        assert all(count > 0 for count in traced)
        assert learned.fallback_rate == (
            learned.fallbacks / (invocations - learned.size_routed)
        )


class TestSchedulerSurface:
    def test_stats_delegation(self, model3):
        scheduler = LearnedScheduler(model3, regret_threshold=float("inf"))
        scheduler.collect_stats = True
        assert scheduler.fallback.collect_stats
        rng = np.random.default_rng(5)
        scheduler.schedule(synthetic_instance(rng, 3))
        assert scheduler.last_size_routed
        assert scheduler.last_stats is scheduler.fallback.last_stats
        scheduler.schedule(synthetic_instance(rng, ABOVE_GATE))
        assert not scheduler.last_size_routed
        # Fast-path serves carry no DP stats — consumers must not see
        # the fallback's stale frontier numbers.
        assert scheduler.last_stats is None
        assert scheduler.last_phase_wall is None


class TestArtifactRoundTrip:
    def test_save_load_predictions_identical(self, model3, tmp_path):
        path = model3.save(tmp_path / "policy.json")
        loaded = PolicyModel.load(path)
        assert loaded.kind == model3.kind
        assert loaded.feature_names == model3.feature_names
        rng = np.random.default_rng(9)
        X = rng.normal(size=(20, len(model3.feature_names)))
        np.testing.assert_array_equal(
            loaded.predict_bits(X), model3.predict_bits(X)
        )
        feats = rng.normal(size=len(REGRET_FEATURE_NAMES))
        assert loaded.predict_regret(feats) == model3.predict_regret(feats)
        again = loaded.save(tmp_path / "again.json")
        assert again.read_bytes() == path.read_bytes()

    def test_committed_artifact_resaves_byte_identical(self, tmp_path):
        path = PolicyModel.load(ARTIFACT).save(tmp_path / "policy.json")
        assert path.read_bytes() == ARTIFACT.read_bytes()

    def test_redistilling_reproduces_committed_artifact(
        self, tm_setup, tmp_path
    ):
        # The recipe of bench_policy_distill.run_e2e (full mode): fitting
        # and serialization must stay bit-exact for the frozen artifact.
        log = DecisionLog()
        run_spec(
            tm_setup,
            RunSpec(policy="schemble", duration=30.0, seed=5, scheduler="dp"),
            explain=log,
        )
        model = distill_policy(
            log, tm_setup.latencies, tm_setup.schemble.utilities, seed=0
        )
        path = model.save(tmp_path / "policy.json")
        assert path.read_bytes() == ARTIFACT.read_bytes()

    def test_loaded_scheduler_matches_original(self, model3, tmp_path):
        loaded = PolicyModel.load(model3.save(tmp_path / "policy.json"))
        rng = np.random.default_rng(13)
        instance = synthetic_instance(rng, ABOVE_GATE)
        a = LearnedScheduler(
            model3, regret_threshold=float("inf")
        ).schedule(instance)
        b = LearnedScheduler(
            loaded, regret_threshold=float("inf")
        ).schedule(instance)
        assert_identical(a, b)

    def test_rejects_wrong_schema(self, model3, tmp_path):
        path = model3.save(tmp_path / "policy.json")
        state = json.loads(path.read_text())
        state["schema"] = "repro.policy_model.v0"
        path.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="schema"):
            PolicyModel.load(path)


def _first_leaf(node):
    while "v" not in node:
        node = node["l"]
    return node


def _bit_tree(state):
    return state["bits_model"]["models"][0]["trees"][0]


def _widen(models):
    for model in models:
        for tree in model["trees"]:
            tree["n_features"] += 1


_CORRUPTIONS = {
    # A -1 split feature used to read the last feature (headroom_m2).
    "negative feature": (
        lambda s: _bit_tree(s)["root"].update(f=-1), "outside"
    ),
    "feature past the width": (
        lambda s: _bit_tree(s)["root"].update(f=_bit_tree(s)["n_features"]),
        "outside",
    ),
    "one tree's width differs": (
        lambda s: _bit_tree(s).update(n_features=11), "disagree"
    ),
    "bit heads wider than the schema": (
        lambda s: _widen(s["bits_model"]["models"]), "locked schema"
    ),
    "regret head wider than the schema": (
        lambda s: _widen([s["regret_model"]]), "locked schema"
    ),
    "split without a right child": (
        lambda s: _bit_tree(s)["root"].pop("r"), "lacks"
    ),
    "split without a left child": (
        lambda s: s["regret_model"]["trees"][3]["root"].pop("l"), "lacks"
    ),
    "NaN leaf": (
        lambda s: _first_leaf(_bit_tree(s)["root"]).update(v=float("nan")),
        "finite",
    ),
    "infinite threshold": (
        lambda s: s["regret_model"]["trees"][0]["root"].update(
            t=float("inf")
        ),
        "finite",
    ),
    "NaN base": (
        lambda s: s["bits_model"]["models"][2].update(base=float("nan")),
        "finite",
    ),
}


class TestArtifactValidation:
    """Malformed artifacts are refused at load, not at the first
    scheduling call inside the serving loop."""

    @pytest.mark.parametrize("case", sorted(_CORRUPTIONS))
    def test_corrupted_artifact_rejected(self, case, tmp_path):
        corrupt, message = _CORRUPTIONS[case]
        state = json.loads(ARTIFACT.read_text())
        corrupt(state)
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(state))
        with pytest.raises(ValueError, match=message):
            PolicyModel.load(path)
