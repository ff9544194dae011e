"""Benchmark gate for the learned fast-path scheduler.

Run as a script (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_policy_distill.py [--quick]

Four checks, matching the ISSUE's acceptance criteria:

* **Step-time speedup** — a 6-model policy distilled from DP solutions
  of small synthetic instances must beat the vectorized exact DP by
  ``MIN_STEP_SPEEDUP`` mean per-step at serving-scale buffers (64 and
  128 queries), with the regret gate disabled (``threshold=inf``) so
  the measurement is pure fast path.
* **End-to-end quality** — on the text_matching small preset, a policy
  distilled from a DP-scheduled run's decision log must serve the same
  trace (same seed) within ``MAX_QUALITY_GAP`` accuracy of the all-DP
  run, while falling back on fewer than ``MAX_FALLBACK_RATE`` of the
  scheduler invocations offered to the fast path (those the size gate
  did not hand to the DP; the size-routed and offered counts are
  recorded beside the rate).
* **Bit-exact fallback** — the same learned scheduler with
  ``regret_threshold=0`` must reproduce the all-DP run exactly:
  identical per-query records and identical scheduler work units.
* **Regression** — current step-time speedups are compared against the
  committed ``benchmarks/results/BENCH_policy.json`` (read *before* it
  is overwritten): any grid point falling below ``1/REGRESSION_FACTOR``
  of its committed speedup fails the run.

``--quick`` shrinks the training set, timing grid and serving runs for
CI. Results go to ``benchmarks/results/BENCH_policy.json``; the
text_matching policy artifact trained by the end-to-end check is saved
next to it.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from _gate import grid_regressions, read_committed  # noqa: E402
from repro.experiments.runner import RunSpec, run_spec  # noqa: E402
from repro.experiments.setups import build_setup  # noqa: E402
from repro.obs.explain import DecisionLog, DecisionRecord  # noqa: E402
from repro.scheduling.distill import distill_policy  # noqa: E402
from repro.scheduling.dp import DPScheduler  # noqa: E402
from repro.scheduling.policy_fast import LearnedScheduler  # noqa: E402
from repro.scheduling.problem import (  # noqa: E402
    QueryRequest,
    SchedulingInstance,
)

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_policy.json"
TABLE_PATH = Path(__file__).parent / "results" / "policy_distill.txt"
ARTIFACT_PATH = (
    Path(__file__).parent / "results" / "policy_text_matching.json"
)

TIMING_DELTA = 0.05
# Fixed 6-model deployment the synthetic policy is trained and timed
# on (spread of fast/slow members, like the real task deployments).
LATENCIES_6 = np.array([0.012, 0.025, 0.05, 0.08, 0.12, 0.18])
# Per-model solo quality: slower members are stronger, so the DP faces
# the real latency/quality trade-off instead of unlearnable noise.
QUALITY_6 = np.array([0.45, 0.55, 0.62, 0.7, 0.78, 0.85])
TRAIN_INSTANCES = 48
TRAIN_INSTANCES_QUICK = 24
# (n_queries, n_models) step-time grid; quick mode drops the largest.
STEP_GRID = ((64, 6), (128, 6))
STEP_GRID_QUICK = ((64, 6),)
STEP_INSTANCES = 2
STEP_INSTANCES_QUICK = 1
LEARNED_REPEATS = 5

MIN_STEP_SPEEDUP = 10.0
MAX_QUALITY_GAP = 0.01
MAX_QUALITY_GAP_QUICK = 0.05
MAX_FALLBACK_RATE = 0.5
REGRESSION_FACTOR = 3.0

E2E_DURATION = 30.0
E2E_DURATION_QUICK = 12.0


def synthetic_utilities(scores):
    """Deterministic ``scores -> (n, 64)`` utility rows for the 6-model
    deployment.

    Mirrors the real pipeline's property that rewards derive from the
    difficulty score alone: a mask's reward is its members' combined
    coverage (1 minus the chance every member misses) scaled by query
    difficulty, rounded to two decimals so quantised ties occur. This
    is the ``utilities_fn`` distillation uses to reconstruct logged
    instances exactly.
    """
    scores = np.asarray(scores, dtype=float)
    member = (
        (np.arange(64)[:, None] >> np.arange(6)[None, :]) & 1
    ).astype(bool)
    coverage = 1.0 - np.prod(
        np.where(member, 1.0 - QUALITY_6[None, :], 1.0), axis=1
    )
    rows = np.round(
        coverage[None, :] * (0.4 + 0.6 * scores[:, None]), 2
    )
    rows[:, 0] = 0.0
    return rows


def make_instance(rng, n_queries, n_models, latencies, now=0.0):
    """One randomized scheduling instance on the fixed 6-model
    deployment, with score-derived utility rows."""
    queries = []
    for qid in range(n_queries):
        score = float(rng.uniform(0.0, 1.0))
        queries.append(QueryRequest(
            query_id=qid,
            arrival=now,
            deadline=now + float(rng.uniform(0.1, 1.0)),
            utilities=synthetic_utilities([score])[0],
            score=score,
        ))
    return SchedulingInstance(
        queries=queries,
        latencies=latencies,
        busy_until=rng.uniform(0.0, 0.1, size=n_models),
        now=now,
    )


def synthesize_training_log(rng, n_instances, latencies):
    """A DecisionLog of DP-solved synthetic instances.

    Each instance is solved exactly and its plan written as one
    scheduling round, giving distillation the same oracle data an
    all-DP serving run's decision log would — without needing a
    6-model serving deployment.
    """
    n_models = latencies.shape[0]
    dp = DPScheduler(delta=TIMING_DELTA)
    log = DecisionLog()
    qid = 0
    for i in range(n_instances):
        now = 10.0 * (i + 1)
        n_queries = int(rng.integers(8, 13))
        instance = make_instance(
            rng, n_queries, n_models, latencies, now=now
        )
        instance = SchedulingInstance(
            queries=[
                QueryRequest(
                    query_id=qid + j,
                    arrival=q.arrival,
                    deadline=q.deadline,
                    utilities=q.utilities,
                    score=q.score,
                )
                for j, q in enumerate(instance.queries)
            ],
            latencies=instance.latencies,
            busy_until=instance.busy_until,
            now=instance.now,
        )
        qid += n_queries
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
                batch_size=n_queries,
                buffer_depth=0,
                busy_until=[float(b) for b in instance.busy_until],
            ))
    return log


def time_step_grid(model, grid, instances_per_point):
    """Mean per-step wall clock: learned fast path vs exact DP.

    The learned scheduler runs with ``regret_threshold=inf`` (the gate
    never fires), so this measures the O(buffer x models) path the
    headline claims. The DP is timed once per instance — at these sizes
    a single solve takes seconds, far above timer noise.
    """
    results = []
    for n_queries, n_models in grid:
        rng = np.random.default_rng(7 * n_queries + n_models)
        instances = [
            make_instance(rng, n_queries, n_models, LATENCIES_6)
            for _ in range(instances_per_point)
        ]
        learned = LearnedScheduler(
            model, regret_threshold=float("inf"),
        )
        dp = DPScheduler(delta=TIMING_DELTA)
        learned.schedule(instances[0])  # warm mask tables
        learned_s = []
        dp_s = []
        for instance in instances:
            best = float("inf")
            for _ in range(LEARNED_REPEATS):
                start = time.perf_counter()
                learned.schedule(instance)
                best = min(best, time.perf_counter() - start)
            learned_s.append(best)
            start = time.perf_counter()
            dp.schedule(instance)
            dp_s.append(time.perf_counter() - start)
        mean_learned = float(np.mean(learned_s))
        mean_dp = float(np.mean(dp_s))
        results.append({
            "n_queries": n_queries,
            "n_models": n_models,
            "delta": TIMING_DELTA,
            "instances": instances_per_point,
            "learned_step_s": mean_learned,
            "dp_step_s": mean_dp,
            "speedup": mean_dp / mean_learned,
        })
    return results


def run_e2e(quick):
    """Quality, fallback-rate and bit-exactness on text_matching small."""
    duration = E2E_DURATION_QUICK if quick else E2E_DURATION
    setup = build_setup("text_matching", "small", seed=0)
    log = DecisionLog()
    base_spec = RunSpec(
        policy="schemble", duration=duration, seed=5, scheduler="dp"
    )
    dp_result = run_spec(setup, base_spec, explain=log)

    model = distill_policy(
        log, setup.latencies, setup.schemble.utilities, seed=0
    )
    ARTIFACT_PATH.parent.mkdir(exist_ok=True)
    model.save(ARTIFACT_PATH)

    policy = setup.policies()["schemble"]
    exact = DPScheduler(delta=setup.schemble.delta)
    gated = LearnedScheduler(
        model, regret_threshold=0.5, fallback=exact
    )
    # Serve the identical workload (same trace/seed as the DP run) with
    # the learned scheduler swapped into the buffered policy directly.
    from repro.experiments.runner import make_workload, run_policy
    from repro.experiments.trace_segments import make_day_trace

    trace = make_day_trace(setup, duration=duration, seed=5)
    workload = make_workload(
        setup, trace, deadline=min(setup.deadline_grid), seed=6
    )
    learned_result = run_policy(
        setup, policy.with_scheduler(gated), workload,
        policy_name="schemble",
    )
    exact0 = DPScheduler(delta=setup.schemble.delta)
    bitexact = LearnedScheduler(
        model, regret_threshold=0.0, fallback=exact0
    )
    zero_result = run_policy(
        setup, policy.with_scheduler(bitexact), workload,
        policy_name="schemble",
    )

    def record_key(r):
        return (
            r.query_id, r.sample_index, r.scheduled_mask,
            r.executed_mask, r.completion, r.rejected,
        )

    dp_acc = dp_result.accuracy(setup.quality)
    learned_acc = learned_result.accuracy(setup.quality)
    bit_exact = (
        [record_key(r) for r in zero_result.records]
        == [record_key(r) for r in dp_result.records]
        and zero_result.scheduler_work_units
        == dp_result.scheduler_work_units
    )
    return {
        "duration": duration,
        "dp_accuracy": dp_acc,
        "learned_accuracy": learned_acc,
        "quality_gap": dp_acc - learned_acc,
        "fallback_rate": gated.fallback_rate,
        "invocations": gated.invocations,
        "size_routed": gated.size_routed,
        "offered": gated.invocations - gated.size_routed,
        "fallbacks": gated.fallbacks,
        "threshold0_bit_exact": bool(bit_exact),
        "model_kind": model.kind,
        "val_accuracy": model.metadata["val_accuracy"],
        "artifact": str(ARTIFACT_PATH.relative_to(REPO_ROOT)),
    }


def main(argv=None):
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    committed = read_committed(RESULTS_PATH)

    rng = np.random.default_rng(2026)
    n_train = TRAIN_INSTANCES_QUICK if quick else TRAIN_INSTANCES
    start = time.perf_counter()
    log = synthesize_training_log(rng, n_train, LATENCIES_6)
    solve_s = time.perf_counter() - start
    start = time.perf_counter()
    model6 = distill_policy(log, LATENCIES_6, synthetic_utilities, seed=0)
    distill_s = time.perf_counter() - start
    print(f"trained 6-model policy: {n_train} DP instances in "
          f"{solve_s:.1f}s, distilled in {distill_s:.1f}s "
          f"(kind={model6.kind}, "
          f"val acc={model6.metadata['val_accuracy']})")

    step_timing = time_step_grid(
        model6,
        STEP_GRID_QUICK if quick else STEP_GRID,
        STEP_INSTANCES_QUICK if quick else STEP_INSTANCES,
    )
    speedup_ok = True
    for point in step_timing:
        print(f"  n={point['n_queries']:3d} m={point['n_models']}: "
              f"learned {point['learned_step_s'] * 1e3:7.2f} ms/step, "
              f"DP {point['dp_step_s']:7.2f} s/step, "
              f"speedup {point['speedup']:.0f}x")
        if point["speedup"] < MIN_STEP_SPEEDUP:
            speedup_ok = False
            print(f"FAIL: step speedup {point['speedup']:.1f}x at "
                  f"n={point['n_queries']} m={point['n_models']} below "
                  f"required {MIN_STEP_SPEEDUP:.0f}x")

    e2e = run_e2e(quick)
    gap_limit = MAX_QUALITY_GAP_QUICK if quick else MAX_QUALITY_GAP
    print(f"e2e text_matching/small: dp acc {e2e['dp_accuracy']:.4f}, "
          f"learned acc {e2e['learned_accuracy']:.4f} "
          f"(gap {e2e['quality_gap']:+.4f}), {e2e['size_routed']} of "
          f"{e2e['invocations']} invocations size-routed to the DP, "
          f"fallback rate {100 * e2e['fallback_rate']:.1f}% over the "
          f"{e2e['offered']} offered, threshold-0 bit-exact: "
          f"{e2e['threshold0_bit_exact']}")
    quality_ok = e2e["quality_gap"] <= gap_limit
    if not quality_ok:
        print(f"FAIL: learned scheduler lost {e2e['quality_gap']:.4f} "
              f"accuracy vs all-DP (limit {gap_limit})")
    fallback_ok = e2e["fallback_rate"] < MAX_FALLBACK_RATE
    if not fallback_ok:
        print(f"FAIL: fallback rate {e2e['fallback_rate']:.2f} >= "
              f"{MAX_FALLBACK_RATE} — the fast path is not serving")
    bitexact_ok = e2e["threshold0_bit_exact"]
    if not bitexact_ok:
        print("FAIL: regret_threshold=0 did not reproduce the all-DP "
              "run bit-exactly")

    regressions, regression_ok = grid_regressions(
        step_timing, committed, "step_timing", "speedup", REGRESSION_FACTOR,
        "committed_speedup",
    )
    for failure in regressions:
        print(f"FAIL: step speedup {failure['speedup']:.0f}x at "
              f"n={failure['n_queries']} m={failure['n_models']} fell "
              f"below 1/{REGRESSION_FACTOR:g} of the committed "
              f"{failure['committed_speedup']:.0f}x")

    payload = {
        "quick": quick,
        "train_instances": n_train,
        "train_solve_s": solve_s,
        "distill_s": distill_s,
        "model6_kind": model6.kind,
        "model6_val_accuracy": model6.metadata["val_accuracy"],
        "step_timing": step_timing,
        "e2e": e2e,
        "regressions": regressions,
        "min_step_speedup": MIN_STEP_SPEEDUP,
        "max_quality_gap": gap_limit,
        "max_fallback_rate": MAX_FALLBACK_RATE,
        "regression_factor": REGRESSION_FACTOR,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULTS_PATH}")

    lines = [
        "Learned fast-path scheduler — distilled policy vs exact "
        "vectorized DP",
        f"6-model policy: {model6.kind}, trained on {n_train} synthetic "
        f"DP instances",
        "buffer  models  learned/step  DP/step    speedup",
        "------  ------  ------------  ---------  -------",
    ]
    for point in step_timing:
        lines.append(
            f"{point['n_queries']:<6d}  {point['n_models']:<6d}  "
            f"{point['learned_step_s'] * 1e3:9.2f} ms  "
            f"{point['dp_step_s']:6.2f} s   "
            f"{point['speedup']:.0f}x"
        )
    lines += [
        "",
        f"e2e (text_matching/small, {e2e['duration']:g}s trace): "
        f"dp {e2e['dp_accuracy']:.4f} vs learned "
        f"{e2e['learned_accuracy']:.4f} accuracy, "
        f"{e2e['size_routed']} of {e2e['invocations']} calls "
        f"size-routed, {100 * e2e['fallback_rate']:.1f}% DP fallbacks "
        f"over the {e2e['offered']} offered, "
        f"threshold-0 bit-exact: {e2e['threshold0_bit_exact']}",
    ]
    TABLE_PATH.write_text("\n".join(lines) + "\n")

    if not (speedup_ok and quality_ok and fallback_ok and bitexact_ok
            and regression_ok):
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
