"""Benchmark guard: the DP's numpy kernel must be fast *and* bit-exact.

Run as a script (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_sched_throughput.py [--quick]

``DPScheduler.schedule`` serves small instances with the loop form and
large ones with the kernel. Every check here calls the kernel itself
(``DPScheduler.schedule_kernel``) and the loop form itself
(:class:`DPReferenceScheduler`), never the size dispatch, which would
run the loop form on both sides of a small instance. Three checks:

* **Parity** — on randomized instances (mixed buffer sizes, ensemble
  sizes, latency profiles, downed models and quantisation steps) the
  kernel must return exactly the same decisions, total utility and
  work units as the loop form. Not "close": equal.
* **Speedup** — min-of-N interleaved timing over a buffer-size grid;
  the kernel must beat the loop form by ``MIN_SPEEDUP`` at every grid
  point at or above 16 queries / 4 models (full mode only — CI
  runners are too noisy for an absolute floor).
* **Regression** — current speedups are compared against the committed
  ``benchmarks/results/BENCH_sched.json`` (read *before* it is
  overwritten): any grid point falling below half its committed
  speedup fails the run. This is the check CI's perf-smoke job
  enforces on every push.

A fourth, kernel-only measurement times the DP at serving-scale
buffers (64 and 128 queries x 6 models) where the loop form is
infeasible. These points record the exact-DP step cost the learned
fast path (``benchmarks/bench_policy_distill.py``) is gated against,
and regression-check on the *ratio* to the 16x4 anchor point — a
machine-portable number, unlike absolute seconds.

A crossover table, with no gate, records the evidence for
``LOOP_FORM_MAX_SIZE``: microseconds per call of each form and the
form the dispatch picks, on 1, 2, 3, 4 and 6 models x 1-8 queries,
with tight and with loose deadlines.

``--quick`` shrinks the parity set and timing grid for CI.
Results go to ``benchmarks/results/BENCH_sched.json``.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from _gate import grid_regressions, read_committed  # noqa: E402
from repro.scheduling.dp import LOOP_FORM_MAX_SIZE, DPScheduler  # noqa: E402
from repro.scheduling.dp_reference import DPReferenceScheduler  # noqa: E402
from repro.scheduling.problem import (  # noqa: E402
    QueryRequest,
    SchedulingInstance,
)

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_sched.json"
TABLE_PATH = Path(__file__).parent / "results" / "sched_throughput.txt"

PARITY_INSTANCES = 220
PARITY_INSTANCES_QUICK = 60
PARITY_DELTAS = (0.01, 0.05, 0.25, None)

# (n_queries, n_models) timing grid; quick mode drops the largest point.
GRID = ((4, 2), (8, 3), (16, 4), (32, 4))
GRID_QUICK = ((4, 2), (8, 3), (16, 4))
TIMING_DELTA = 0.05
INSTANCES_PER_POINT = 4
REPEATS = 3
INSTANCES_PER_POINT_QUICK = 2
REPEATS_QUICK = 2

# Serving-scale buffers: kernel only (the loop form would take minutes
# per instance), timed per-instance and gated on the ratio to the
# LARGE_RATIO_ANCHOR small-grid point.
LARGE_GRID = ((64, 6), (128, 6))
LARGE_GRID_QUICK = ((64, 6),)
LARGE_INSTANCES = 1
LARGE_REPEATS = 2
LARGE_REPEATS_QUICK = 1
LARGE_RATIO_ANCHOR = (16, 4)
LARGE_REGRESSION_FACTOR = 3.0

# Required kernel-over-loop-form speedup at grid points with >= 16
# queries and 4 models, where serving runs the kernel.
MIN_SPEEDUP = 3.0
MIN_SPEEDUP_QUERIES = 16
MIN_SPEEDUP_MODELS = 4
# Regression tolerance vs the committed baseline speedups.
REGRESSION_FACTOR = 2.0

# Crossover table: ensemble sizes x buffer sizes, both deadline ranges.
CROSSOVER_MODELS = (1, 2, 3, 4, 6)
CROSSOVER_QUERIES = tuple(range(1, 9))
CROSSOVER_INSTANCES = 4
CROSSOVER_REPEATS = 3
CROSSOVER_INSTANCES_QUICK = 2
CROSSOVER_REPEATS_QUICK = 1


def make_instance(rng, n_queries, n_models, equal_latencies=False,
                  downed_model=False, tight_deadlines=False):
    """One randomized scheduling instance.

    ``equal_latencies`` forces bit-identical finish-time collisions
    (any two plans running each model equally often tie exactly);
    ``downed_model`` puts one model's busy time at +inf, the degraded
    state fault-mode serving feeds the scheduler.
    """
    if equal_latencies:
        latencies = np.full(n_models, 0.05)
    else:
        latencies = rng.uniform(0.01, 0.2, size=n_models)
    busy = rng.uniform(0.0, 0.1, size=n_models)
    if downed_model and n_models > 1:
        busy[int(rng.integers(0, n_models))] = np.inf
    deadline_range = (0.05, 0.3) if tight_deadlines else (0.1, 1.0)
    n_masks = 1 << n_models
    queries = []
    for qid in range(n_queries):
        utilities = np.zeros(n_masks)
        # Two-decimal rewards make quantised ties common — the case the
        # canonical ordering and unquantised tie-break exist for.
        utilities[1:] = np.round(rng.uniform(0.0, 1.0, size=n_masks - 1), 2)
        queries.append(QueryRequest(
            query_id=qid,
            arrival=0.0,
            deadline=float(rng.uniform(*deadline_range)),
            utilities=utilities,
        ))
    return SchedulingInstance(
        queries=queries, latencies=latencies, busy_until=busy, now=0.0,
    )


def check_parity(n_instances):
    """Decision-for-decision equality of the kernel and the loop form
    on randomized instances."""
    rng = np.random.default_rng(2023)
    mismatches = []
    for i in range(n_instances):
        instance = make_instance(
            rng,
            n_queries=int(rng.integers(1, 9)),
            n_models=int(rng.integers(1, 5)),
            equal_latencies=bool(i % 3 == 0),
            downed_model=bool(i % 5 == 0),
            tight_deadlines=bool(i % 4 == 0),
        )
        delta = PARITY_DELTAS[i % len(PARITY_DELTAS)]
        vec = DPScheduler(delta=delta).schedule_kernel(instance)
        ref = DPReferenceScheduler(delta=delta).schedule(instance)
        same = (
            [(d.query_id, d.mask) for d in vec.decisions]
            == [(d.query_id, d.mask) for d in ref.decisions]
            and vec.total_utility == ref.total_utility
            and vec.work_units == ref.work_units
        )
        if not same:
            mismatches.append({
                "instance": i,
                "delta": delta,
                "vectorized": [d.mask for d in vec.decisions],
                "reference": [d.mask for d in ref.decisions],
            })
    return {
        "instances": n_instances,
        "deltas": list(PARITY_DELTAS),
        "mismatches": mismatches,
    }, not mismatches


def best_times(forms, instances, repeats):
    """Min-of-``repeats`` seconds per ``(name, solve)`` form over
    ``instances``, the forms interleaved. One call per form on the first
    instance warms the per-instance mask/quantisation caches, so the
    timed region measures scheduling, not one-off table construction."""
    for _, solve in forms:
        solve(instances[0])
    best = {name: float("inf") for name, _ in forms}
    for _ in range(repeats):
        for name, solve in forms:
            start = time.perf_counter()
            for instance in instances:
                solve(instance)
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def time_grid(grid, instances_per_point, repeats):
    """Min-of-N interleaved timing of both forms per grid point."""
    results = []
    for n_queries, n_models in grid:
        rng = np.random.default_rng(7 * n_queries + n_models)
        instances = [
            make_instance(rng, n_queries, n_models)
            for _ in range(instances_per_point)
        ]
        best = best_times(
            (
                ("vectorized",
                 DPScheduler(delta=TIMING_DELTA).schedule_kernel),
                ("reference",
                 DPReferenceScheduler(delta=TIMING_DELTA).schedule),
            ),
            instances, repeats,
        )
        results.append({
            "n_queries": n_queries,
            "n_models": n_models,
            "delta": TIMING_DELTA,
            "instances": instances_per_point,
            "repeats": repeats,
            "vectorized_s": best["vectorized"],
            "reference_s": best["reference"],
            "speedup": best["reference"] / best["vectorized"],
        })
    return results


def time_large_grid(grid, repeats, anchor_per_instance_s):
    """Kernel-only timing at serving-scale buffer sizes.

    No reference column: the loop form takes minutes per instance
    here. Each point also records its per-instance cost as a multiple
    of the small-grid anchor point, which is what the regression gate
    compares — absolute seconds vary with the machine, the ratio of
    two runs of the same kernel far less.
    """
    results = []
    for n_queries, n_models in grid:
        rng = np.random.default_rng(7 * n_queries + n_models)
        instances = [
            make_instance(rng, n_queries, n_models)
            for _ in range(LARGE_INSTANCES)
        ]
        kernel = DPScheduler(delta=TIMING_DELTA).schedule_kernel
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for instance in instances:
                kernel(instance)
            best = min(best, time.perf_counter() - start)
        per_instance = best / len(instances)
        results.append({
            "n_queries": n_queries,
            "n_models": n_models,
            "delta": TIMING_DELTA,
            "instances": LARGE_INSTANCES,
            "repeats": repeats,
            "vectorized_s": best,
            "per_instance_s": per_instance,
            "ratio_to_anchor": per_instance / anchor_per_instance_s,
        })
    return results


def time_crossover(instances_per_point, repeats):
    """Microseconds per call of each form, and the form the size
    dispatch picks, over the crossover grid. Recorded, not gated."""
    results = []
    for tight in (True, False):
        for n_models in CROSSOVER_MODELS:
            for n_queries in CROSSOVER_QUERIES:
                rng = np.random.default_rng(7 * n_queries + n_models)
                instances = [
                    make_instance(
                        rng, n_queries, n_models, tight_deadlines=tight
                    )
                    for _ in range(instances_per_point)
                ]
                scheduler = DPScheduler(delta=TIMING_DELTA)
                best = best_times(
                    (
                        ("kernel", scheduler.schedule_kernel),
                        ("loop", scheduler.schedule_loop),
                    ),
                    instances, repeats,
                )
                size = n_queries << n_models
                results.append({
                    "deadlines": "tight" if tight else "loose",
                    "n_queries": n_queries,
                    "n_models": n_models,
                    "kernel_us": best["kernel"] / len(instances) * 1e6,
                    "loop_us": best["loop"] / len(instances) * 1e6,
                    "dispatch": (
                        "loop" if size <= LOOP_FORM_MAX_SIZE else "kernel"
                    ),
                })
    return results


def format_crossover(crossover):
    """The crossover table: kernel/loop-form µs per call per grid point,
    upper-case where the dispatch picks that form."""
    lines = [
        f"crossover (µs per call, kernel/loop; the dispatch runs the "
        f"loop form up to n_queries * 2**n_models = {LOOP_FORM_MAX_SIZE}, "
        f"marked L, else the kernel, marked K):",
        "deadlines  models  " + "  ".join(
            f"{n:>15d}" for n in CROSSOVER_QUERIES
        ),
    ]
    rows = {}
    for point in crossover:
        key = (point["deadlines"], point["n_models"])
        mark = "L" if point["dispatch"] == "loop" else "K"
        rows.setdefault(key, []).append(
            f"{point['kernel_us']:7.0f}/{point['loop_us']:<7.0f}{mark}"
        )
    for (deadlines, n_models), cells in rows.items():
        lines.append(f"{deadlines:<9s}  {n_models:<6d}  " + "  ".join(cells))
    return lines


def main(argv=None):
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    # The committed baseline must be read before this run overwrites it.
    committed = read_committed(RESULTS_PATH)

    n_parity = PARITY_INSTANCES_QUICK if quick else PARITY_INSTANCES
    parity, parity_ok = check_parity(n_parity)
    print(f"parity: {n_parity} instances, "
          f"{len(parity['mismatches'])} mismatches")

    grid = GRID_QUICK if quick else GRID
    timing = time_grid(
        grid,
        INSTANCES_PER_POINT_QUICK if quick else INSTANCES_PER_POINT,
        REPEATS_QUICK if quick else REPEATS,
    )
    for point in timing:
        print(f"  n={point['n_queries']:3d} m={point['n_models']}: "
              f"vectorized {point['vectorized_s'] * 1e3:8.2f} ms, "
              f"reference {point['reference_s'] * 1e3:8.2f} ms, "
              f"speedup {point['speedup']:.2f}x")

    anchor = next(
        p for p in timing
        if (p["n_queries"], p["n_models"]) == LARGE_RATIO_ANCHOR
    )
    anchor_per_instance = anchor["vectorized_s"] / anchor["instances"]
    large_timing = time_large_grid(
        LARGE_GRID_QUICK if quick else LARGE_GRID,
        LARGE_REPEATS_QUICK if quick else LARGE_REPEATS,
        anchor_per_instance,
    )
    for point in large_timing:
        print(f"  n={point['n_queries']:3d} m={point['n_models']}: "
              f"vectorized {point['per_instance_s']:8.2f} s/instance "
              f"(no reference; {point['ratio_to_anchor']:.0f}x the "
              f"{LARGE_RATIO_ANCHOR[0]}x{LARGE_RATIO_ANCHOR[1]} anchor)")

    crossover = time_crossover(
        CROSSOVER_INSTANCES_QUICK if quick else CROSSOVER_INSTANCES,
        CROSSOVER_REPEATS_QUICK if quick else CROSSOVER_REPEATS,
    )
    crossover_lines = format_crossover(crossover)
    print("\n".join(crossover_lines))

    regressions, regression_ok = grid_regressions(
        timing, committed, "timing", "speedup", REGRESSION_FACTOR,
        "committed_speedup",
    )
    # A serving-scale point fails when its anchor ratio blows up.
    large_regressions, large_ok = grid_regressions(
        large_timing, committed, "large_timing", "ratio_to_anchor",
        LARGE_REGRESSION_FACTOR, "committed_ratio", lower_is_better=True,
    )

    speedup_ok = True
    if not quick:
        for point in timing:
            if (point["n_queries"] >= MIN_SPEEDUP_QUERIES
                    and point["n_models"] >= MIN_SPEEDUP_MODELS
                    and point["speedup"] < MIN_SPEEDUP):
                speedup_ok = False
                print(f"FAIL: speedup {point['speedup']:.2f}x at "
                      f"n={point['n_queries']} m={point['n_models']} "
                      f"below required {MIN_SPEEDUP:.1f}x")

    payload = {
        "quick": quick,
        "parity": parity,
        "timing": timing,
        "large_timing": large_timing,
        "regressions": regressions,
        "large_regressions": large_regressions,
        "min_speedup": MIN_SPEEDUP,
        "regression_factor": REGRESSION_FACTOR,
        "large_regression_factor": LARGE_REGRESSION_FACTOR,
        "large_ratio_anchor": list(LARGE_RATIO_ANCHOR),
        "loop_form_max_size": LOOP_FORM_MAX_SIZE,
        "crossover": crossover,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULTS_PATH}")

    lines = [
        "DP scheduler throughput — numpy kernel vs loop form "
        "(bit-exact plans)",
        f"parity: {n_parity} randomized instances, "
        f"{len(parity['mismatches'])} mismatches "
        f"(deltas {PARITY_DELTAS})",
        "buffer  models  vectorized  reference  speedup",
        "------  ------  ----------  ---------  -------",
    ]
    for point in timing:
        lines.append(
            f"{point['n_queries']:<6d}  {point['n_models']:<6d}  "
            f"{point['vectorized_s'] * 1e3:7.1f} ms  "
            f"{point['reference_s'] * 1e3:6.1f} ms  "
            f"{point['speedup']:.2f}x"
        )
    lines.append("")
    lines.append("serving-scale buffers (kernel only — the loop form "
                 "is infeasible here):")
    for point in large_timing:
        lines.append(
            f"{point['n_queries']:<6d}  {point['n_models']:<6d}  "
            f"{point['per_instance_s']:7.2f} s/instance  "
            f"({point['ratio_to_anchor']:.0f}x the "
            f"{LARGE_RATIO_ANCHOR[0]}x{LARGE_RATIO_ANCHOR[1]} anchor)"
        )
    lines.append("")
    lines.extend(crossover_lines)
    TABLE_PATH.write_text("\n".join(lines) + "\n")

    if not parity_ok:
        print("FAIL: the kernel diverged from the loop form")
        return 1
    for failure in regressions:
        print(f"FAIL: speedup {failure['speedup']:.2f}x at "
              f"n={failure['n_queries']} m={failure['n_models']} fell "
              f"below half the committed {failure['committed_speedup']:.2f}x")
    for failure in large_regressions:
        print(f"FAIL: anchor ratio {failure['ratio_to_anchor']:.0f}x at "
              f"n={failure['n_queries']} m={failure['n_models']} blew "
              f"past {LARGE_REGRESSION_FACTOR:g}x the committed "
              f"{failure['committed_ratio']:.0f}x")
    if not regression_ok or not speedup_ok or not large_ok:
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
