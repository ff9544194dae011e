"""Benchmark guard: fault injection is deterministic and null plans
are free.

Run as a script (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_fault_determinism.py

Three checks on a diurnal-trace workload:

* **Determinism** — the same seed, workload and ``FaultPlan`` produce
  an identical run report (and record-identical results) across two
  independent server instances. This is the property CI pins: fault
  experiments must be replayable from their config alone. The report's
  "real wall-clock" figures measure *host* time (``time.perf_counter``
  inside scheduler invocations), the one part of the report that is not
  simulation state, so they are masked before comparison: each number
  after "wall-clock" on a line is replaced by a placeholder, and every
  other figure on that line (the invocation and work-unit counts) is
  still compared. A wall-clock value also sets the width of its table's
  columns, so lines are compared as whitespace-split tokens and the
  dash rules under table headers as one marker; padding is layout, and
  every simulated number is still compared exactly.
* **Null-plan identity** — a server configured with an all-zero
  ``FaultPlan`` produces exactly the same per-query records as one with
  no plan at all (same spirit as ``bench_obs_overhead.py``: the fault
  subsystem only acts when asked).
* **Fault-path identity** — a ``task_timeout`` no execution can hit
  changes no outcome; the records must still match the plain run.

Results go to ``benchmarks/results/BENCH_faults.json``.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.data.traces import diurnal_trace  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.obs import RecordingTracer, render_report  # noqa: E402
from repro.scheduling.dp import DPScheduler  # noqa: E402
from repro.serving.config import ServerConfig  # noqa: E402
from repro.serving.policies import BufferedSchedulingPolicy  # noqa: E402
from repro.serving.server import EnsembleServer  # noqa: E402
from repro.serving.workload import ServingWorkload  # noqa: E402

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_faults.json"

LATENCIES = [0.010, 0.022, 0.045]
DURATION = 60.0


def build_workload(base_rate, duration, seed, n_pool=512):
    trace = diurnal_trace(base_rate, duration, seed=seed)
    rng = np.random.default_rng(seed + 1)
    m = len(LATENCIES)
    quality = rng.uniform(0.3, 1.0, size=(n_pool, 1 << m))
    quality[:, 0] = 0.0
    return ServingWorkload(
        arrivals=trace.arrivals,
        deadlines=np.full(len(trace), 0.08),
        sample_indices=rng.integers(n_pool, size=len(trace)),
        quality=quality,
    )


def make_policy(n_pool=512):
    # Utility grows with subset size so plans span several models and
    # a single failed task leaves a non-empty executed subset (the
    # degraded-answer case the determinism check must cover).
    m = len(LATENCIES)
    utilities = np.zeros((n_pool, 1 << m))
    for mask in range(1, 1 << m):
        utilities[:, mask] = 0.6 + 0.1 * bin(mask).count("1")
    return BufferedSchedulingPolicy(
        "schemble", DPScheduler(delta=0.05), utilities
    )


def run(config, workload, traced=False):
    tracer = RecordingTracer() if traced else None
    server = EnsembleServer.from_config(
        LATENCIES, make_policy(), config, tracer=tracer
    )
    return server.run(workload), tracer


_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:e[+-]?\d+)?")


def mask_wall_clock(report):
    """The report as per-line tokens with host time masked.

    Real wall-clock is not simulation state: every number after
    "wall-clock" on a line becomes ``<wall>``. The wall-clock row of a
    table still sizes that table's columns, so each line is reduced to
    its whitespace-split tokens and each dash rule to one marker.
    """
    masked = []
    for line in report.splitlines():
        head, sep, tail = line.partition("wall-clock")
        tokens = (head + sep + _NUMBER.sub("<wall>", tail)).split()
        if tokens and all(set(token) == {"-"} for token in tokens):
            tokens = ["<rule>"]
        masked.append(tokens)
    return masked


def check_determinism():
    """Same (seed, workload, plan) twice: byte-identical report."""
    workload = build_workload(base_rate=60.0, duration=DURATION, seed=11)
    plan = FaultPlan(
        seed=7, latency_jitter=0.1, straggler_prob=0.02,
        task_failure_rate=0.05,
    ).with_random_crashes(
        n_workers=len(LATENCIES), duration=DURATION,
        crash_rate=0.02, mean_downtime=1.0, seed=8,
    )
    config = ServerConfig(
        faults=plan, task_timeout=0.5, max_retries=1, retry_backoff=0.002
    )
    result_a, tracer_a = run(config, workload, traced=True)
    result_b, tracer_b = run(config, workload, traced=True)
    report_a = mask_wall_clock(render_report(result_a, tracer_a, duration=DURATION))
    report_b = mask_wall_clock(render_report(result_b, tracer_b, duration=DURATION))
    records_ok = result_a.records == result_b.records
    report_ok = report_a == report_b
    return {
        "queries": workload.n_queries,
        "degraded": result_a.n_degraded(),
        "retries": result_a.total_retries(),
        "records_identical": records_ok,
        "report_identical": report_ok,
    }, records_ok and report_ok


def check_null_plan_identity():
    """A null plan must leave serving output untouched."""
    workload = build_workload(base_rate=60.0, duration=DURATION, seed=13)
    plain, _ = run(ServerConfig(), workload)
    nulled, _ = run(ServerConfig(faults=FaultPlan()), workload)
    timed, _ = run(ServerConfig(task_timeout=1e6), workload)
    null_ok = plain.records == nulled.records
    timed_ok = plain.records == timed.records
    return {
        "queries": workload.n_queries,
        "null_plan_identical": null_ok,
        "fault_path_identical": timed_ok,
    }, null_ok and timed_ok


def main():
    determinism, det_ok = check_determinism()
    print(
        f"determinism: {determinism['queries']} queries, "
        f"{determinism['degraded']} degraded, "
        f"{determinism['retries']} retries, "
        f"records identical = {determinism['records_identical']}, "
        f"report identical = {determinism['report_identical']}"
    )
    identity, id_ok = check_null_plan_identity()
    print(
        f"identity: {identity['queries']} queries, "
        f"null plan identical = {identity['null_plan_identical']}, "
        f"fault path identical = {identity['fault_path_identical']}"
    )
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(
        {"determinism": determinism, "identity": identity}, indent=2
    ) + "\n")
    print(f"wrote {RESULTS_PATH}")
    if not (det_ok and id_ok):
        print("FAIL")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
