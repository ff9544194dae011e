"""Benchmark guard: the fleet must earn its keep on three diurnal days.

Run as a script (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_fleet.py [--quick]

One scaled diurnal trace shape (~30x swing between the quietest and
busiest hour) is served on three days through
:func:`~repro.experiments.fleet.run_fleet_comparison`: a single big
server with the *same total capacity* (``N_SHARDS`` replicas of the
per-shard deployment behind one buffer and one scheduler), a static
fleet per router, and on the control day the ``power_of_two`` fleet
once more with the SLO-driven control loop closed:

* **Routing day** (1M+ queries in full mode) — ample admission queue
  (no shedding), tight deadline. Isolates pure placement:
  backlog-aware routing (power-of-two-choices, score-aware) must beat
  static consistent hashing on deadline-miss rate by ``DMR_FACTOR`` at
  equal quality (accuracy within ``QUALITY_TOLERANCE``).
* **Admission day** — default queue limit, relaxed deadline. The
  single server absorbs the peak by queueing everything to the
  deadline edge; the fleet sheds what it cannot serve well and must
  keep served-query latency down: p99 strictly below the single
  server's and p50 below ``P50_FACTOR`` of it.
* **Control day** — an under-provisioned fleet (tight queue limit).
  The static ``power_of_two`` fleet has no answer to the burst hours
  and sheds over half the day; the controlled fleet detects the burn,
  tightens admission, flips to the cheap subset, and scales replica
  sets until the peak fits. Its static fleet's deadline-miss rate
  (sheds included) must be at least ``BREACH_FACTOR`` times the
  ``MISS_TARGET`` SLO, the controlled fleet must hold ``MISS_TARGET``,
  beat the static fleet's accuracy and stay above ``ACCURACY_FLOOR``,
  and the controller must have detected an episode, scaled up, and
  fully unwound (scale-downs match scale-ups, restores match degrades).

Hard assertions run in full mode only (the quick days are too short
for stable tails or a full breach/recover cycle); ``--quick`` serves
short days for CI smoke and records numbers without enforcing them.
The determinism contract is asserted in *both* modes: the controlled
fleet is replayed on the same trace + seed and its action log must be
byte-identical (``ControlLog.dumps()``).

The routing and admission days write ``BENCH_fleet.json`` and
``fleet_routing.txt``; the control day writes ``BENCH_control.json``
and ``control_loop.txt``. Both committed JSONs are read *before* they
are overwritten; when a committed run used the same mode, its
separation (routing: hash DMR over the best backlog-aware DMR; SLO:
static over controlled DMR) must not fall below ``1 /
REGRESSION_FACTOR`` of the committed value.
"""

import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from _gate import read_committed, separation_regressions  # noqa: E402
from repro.control import ControlConfig  # noqa: E402
from repro.experiments.fleet import (  # noqa: E402
    FLEET_LATENCIES,
    fleet_config,
    fleet_workload,
    make_fleet_policy,
    run_fleet_comparison,
    synthetic_fleet_setup,
)
from repro.fleet.server import FleetServer  # noqa: E402
from repro.obs.slo import SLOConfig  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"
FLEET_RESULTS_PATH = RESULTS_DIR / "BENCH_fleet.json"
FLEET_TABLE_PATH = RESULTS_DIR / "fleet_routing.txt"
CONTROL_RESULTS_PATH = RESULTS_DIR / "BENCH_control.json"
CONTROL_TABLE_PATH = RESULTS_DIR / "control_loop.txt"

N_SHARDS = 4
BASE_RATE = 40.0
SEED = 0
# The controlled fleet's router; its static row is the control day's
# baseline.
ROUTER = "power_of_two"

# Routing and admission days: one hour, at least a million queries.
FLEET_DURATION = 3600.0
FLEET_DURATION_QUICK = 20.0
FLEET_MIN_QUERIES = 1_000_000
# Routing day: ample queue, tight deadline — placement only.
ROUTING_DEADLINE = 0.06
ROUTING_QUEUE_LIMIT = 10 ** 6
# Admission day: default queue, relaxed deadline — shed vs queue.
ADMISSION_DEADLINE = 0.15
ADMISSION_QUEUE_LIMIT = 64

# Control day: 15 minutes through an under-provisioned fleet.
CONTROL_DURATION = 900.0
CONTROL_DURATION_QUICK = 60.0
CONTROL_MIN_QUERIES = 200_000
CONTROL_DEADLINE = 0.1
CONTROL_QUEUE_LIMIT = 32

# Backlog-aware routing must at least halve hashing's miss rate while
# staying within this much accuracy of it.
DMR_FACTOR = 2.0
QUALITY_TOLERANCE = 0.01
# Admission must keep served p50 below this fraction of the single
# server's (p99 must simply be strictly lower).
P50_FACTOR = 0.7
# The SLO the controlled fleet must hold over the whole day and the
# static fleet must clearly breach.
MISS_TARGET = 0.05
BREACH_FACTOR = 2.0
# Degraded-mode answers cost quality; the controlled day must still
# beat the static day and keep absolute accuracy above this floor.
ACCURACY_FLOOR = 0.6
# Committed-baseline tolerance on both separation ratios.
REGRESSION_FACTOR = 2.0

BACKLOG_AWARE = ("power_of_two", "score_aware")

# Tuned for the compressed day: detection over a 20 s alert window,
# fast scale-ups (2 s warmup, 5 s cooldown), and a reluctant unwind
# (burn <= 0.1) so a freshly drained window cannot retire capacity
# the still-running burst needs.
ALERT_WINDOW = 20.0


def control_config() -> ControlConfig:
    return ControlConfig(
        interval=1.0,
        warmup=2.0,
        max_extra_replicas=16,
        scale_up_burn=2.0,
        scale_down_burn=0.1,
        cooldown=5.0,
        seed=SEED,
        slo=SLOConfig(
            miss_target=MISS_TARGET,
            windows=(ALERT_WINDOW, 6.0 * ALERT_WINDOW),
            alert_window=ALERT_WINDOW,
            breach_burn=2.0,
            recover_burn=1.0,
            min_events=20,
        ),
    )


def serve_day(name, policy, quality, latencies, *, duration, deadline,
              queue_limit, control=None):
    """Serve one diurnal day; returns (rows, meta, workload, observed)."""
    workload = fleet_workload(
        quality, base_rate=BASE_RATE, duration=duration,
        deadline=deadline, seed=1,
    )
    start = time.perf_counter()
    rows, observed = run_fleet_comparison(
        latencies, policy, workload, quality,
        n_shards=N_SHARDS, queue_limit=queue_limit, router=ROUTER,
        control=control, seed=SEED,
    )
    wall = time.perf_counter() - start
    print(f"{name}: n={workload.n_queries} deadline={deadline * 1e3:.0f}ms "
          f"queue_limit={queue_limit} [{wall:.1f}s]")
    for serving, row in rows.items():
        print(f"  {serving:13s} acc={row['accuracy']:.3f} "
              f"dmr={row['dmr']:.4f} p50={row['p50'] * 1e3:6.1f}ms "
              f"p99={row['p99'] * 1e3:6.1f}ms shed={row['shed_rate']:.2%} "
              f"degraded={row['degraded_rate']:.2%}")
    meta = {"n_queries": int(workload.n_queries), "deadline": deadline,
            "queue_limit": queue_limit, "wall_s": wall}
    return rows, meta, workload, observed


def best_backlog_aware(rows):
    """The backlog-aware router with the lowest miss rate."""
    return min(BACKLOG_AWARE, key=lambda name: rows[name]["dmr"])


def routing_separation(rows):
    """Hash DMR over the best backlog-aware router's DMR."""
    return rows["hash"]["dmr"] / max(
        rows[best_backlog_aware(rows)]["dmr"], 1e-9
    )


def slo_separation(rows):
    """Static DMR over controlled DMR on the control day."""
    return rows[ROUTER]["dmr"] / max(rows["controlled"]["dmr"], 1e-9)


def check_size(meta, floor):
    """Full-mode days must be as large as their gates assume."""
    if meta["n_queries"] < floor:
        return [f"trace too small: {meta['n_queries']} queries < {floor}"]
    return []


def check_routing(rows):
    """Backlog-aware placement beats hashing on DMR at equal quality."""
    failures = []
    hash_row = rows["hash"]
    best = best_backlog_aware(rows)
    best_row = rows[best]
    if best_row["dmr"] * DMR_FACTOR > hash_row["dmr"]:
        failures.append(
            f"routing: {best} dmr {best_row['dmr']:.4f} not "
            f"{DMR_FACTOR:.1f}x below hash {hash_row['dmr']:.4f}"
        )
    if best_row["accuracy"] < hash_row["accuracy"] - QUALITY_TOLERANCE:
        failures.append(
            f"routing: {best} accuracy {best_row['accuracy']:.3f} more "
            f"than {QUALITY_TOLERANCE} below hash "
            f"{hash_row['accuracy']:.3f}"
        )
    return failures


def check_admission(rows):
    """The fleet's served tail beats the deadline-pinned single server."""
    failures = []
    single = rows["single"]
    fleet = rows[best_backlog_aware(rows)]
    if fleet["p99"] >= single["p99"]:
        failures.append(
            f"admission: fleet p99 {fleet['p99'] * 1e3:.1f}ms not below "
            f"single {single['p99'] * 1e3:.1f}ms"
        )
    if fleet["p50"] > P50_FACTOR * single["p50"]:
        failures.append(
            f"admission: fleet p50 {fleet['p50'] * 1e3:.1f}ms above "
            f"{P50_FACTOR:.0%} of single {single['p50'] * 1e3:.1f}ms"
        )
    return failures


def check_slo(rows):
    """Static breaches the SLO; controlled holds it at bounded cost."""
    failures = []
    static = rows[ROUTER]
    controlled = rows["controlled"]
    if static["dmr"] < BREACH_FACTOR * MISS_TARGET:
        failures.append(
            f"breach: static dmr {static['dmr']:.4f} below "
            f"{BREACH_FACTOR:.0f}x the {MISS_TARGET:.0%} target — the "
            f"day is not hard enough to prove anything"
        )
    if controlled["dmr"] > MISS_TARGET:
        failures.append(
            f"hold: controlled dmr {controlled['dmr']:.4f} above the "
            f"{MISS_TARGET:.0%} target"
        )
    if controlled["accuracy"] <= static["accuracy"]:
        failures.append(
            f"quality: controlled accuracy {controlled['accuracy']:.3f} "
            f"not above static {static['accuracy']:.3f}"
        )
    if controlled["accuracy"] < ACCURACY_FLOOR:
        failures.append(
            f"quality: controlled accuracy {controlled['accuracy']:.3f} "
            f"below the {ACCURACY_FLOOR} floor"
        )
    return failures


def check_actuation(rows):
    """The controller detected, acted, and fully unwound."""
    failures = []
    controlled = rows["controlled"]
    if controlled["episodes"] < 1:
        failures.append("actuation: no overload episode detected")
    if controlled["scale_ups"] < 1:
        failures.append("actuation: controller never scaled up")
    if controlled["scale_ups"] != controlled["scale_downs"]:
        failures.append(
            f"actuation: {controlled['scale_ups']:.0f} scale-ups vs "
            f"{controlled['scale_downs']:.0f} scale-downs — capacity "
            f"not fully retired"
        )
    if controlled["degrades"] != controlled["restores"]:
        failures.append(
            f"actuation: {controlled['degrades']:.0f} degrades vs "
            f"{controlled['restores']:.0f} restores"
        )
    return failures


def check_determinism(policy, latencies, workload, controlled):
    """Same trace + seed must replay to a byte-identical action log."""
    rerun = FleetServer.from_config(
        latencies, policy,
        fleet_config(N_SHARDS, CONTROL_QUEUE_LIMIT, ROUTER, SEED,
                     control_config()),
    ).run(workload)
    if rerun.control_log.dumps() != controlled.control_log.dumps():
        return ["determinism: action log differs across same-seed reruns"]
    return []


def write_fleet_table(routing, admission, routing_meta, admission_meta):
    """Human-readable companion table next to BENCH_fleet.json."""
    lines = [
        "Fleet serving on a diurnal day — routers and admission vs one "
        "equal-capacity server",
        f"{N_SHARDS} shards x {len(FLEET_LATENCIES)} models, "
        f"base rate {BASE_RATE:.0f} q/s (~30x diurnal swing)",
    ]
    for title, rows, meta in (
        ("routing regime (ample queue)", routing, routing_meta),
        ("admission regime (queue limit "
         f"{ADMISSION_QUEUE_LIMIT})", admission, admission_meta),
    ):
        lines.append("")
        lines.append(f"{title}: {meta['n_queries']} queries, deadline "
                     f"{meta['deadline'] * 1e3:.0f}ms")
        lines.append("serving        accuracy    DMR    p50 ms  p95 ms  "
                     "p99 ms   shed")
        lines.append("-------------  --------  ------  ------  ------  "
                     "------  -----")
        for serving, row in rows.items():
            lines.append(
                f"{serving:13s}  {row['accuracy']:8.3f}  "
                f"{row['dmr']:6.4f}  {row['p50'] * 1e3:6.1f}  "
                f"{row['p95'] * 1e3:6.1f}  {row['p99'] * 1e3:6.1f}  "
                f"{row['shed_rate']:5.1%}"
            )
    FLEET_TABLE_PATH.write_text("\n".join(lines) + "\n")


def write_control_table(rows, meta, controlled):
    """Human-readable companion table next to BENCH_control.json."""
    c = rows["controlled"]
    lines = [
        "Closing the control loop on a diurnal day — static fleets vs "
        "SLO-driven control",
        f"{N_SHARDS} shards x {len(FLEET_LATENCIES)} models, base rate "
        f"{BASE_RATE:.0f} q/s (~30x diurnal swing), queue limit "
        f"{CONTROL_QUEUE_LIMIT}, deadline {CONTROL_DEADLINE * 1e3:.0f}ms, "
        f"SLO target {MISS_TARGET:.0%} misses, controlled router "
        f"{ROUTER}",
        "",
        f"{meta['n_queries']} queries",
        "serving        accuracy    DMR    p50 ms  p99 ms   shed  "
        "degraded",
        "-------------  --------  ------  ------  ------  -----  "
        "--------",
    ]
    for serving, row in rows.items():
        lines.append(
            f"{serving:13s}  {row['accuracy']:8.3f}  {row['dmr']:6.4f}  "
            f"{row['p50'] * 1e3:6.1f}  {row['p99'] * 1e3:6.1f}  "
            f"{row['shed_rate']:5.1%}  {row['degraded_rate']:8.1%}"
        )
    lines += [
        "",
        f"controller: {c['scale_ups']:.0f} scale-ups / "
        f"{c['scale_downs']:.0f} scale-downs, {c['degrades']:.0f} "
        f"degrade / {c['restores']:.0f} restore, "
        f"{c['admission_changes']:.0f} admission changes over "
        f"{c['episodes']:.0f} overload episode(s)",
        f"action log: {len(controlled.control_log)} entries, "
        f"byte-identical across same-seed reruns",
    ]
    CONTROL_TABLE_PATH.write_text("\n".join(lines) + "\n")


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def main(argv=None):
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    committed_fleet = read_committed(FLEET_RESULTS_PATH)
    committed_control = read_committed(CONTROL_RESULTS_PATH)

    latencies, quality, scores = synthetic_fleet_setup(seed=0)
    policy = make_fleet_policy(quality, scores)
    fleet_duration = FLEET_DURATION_QUICK if quick else FLEET_DURATION
    control_duration = CONTROL_DURATION_QUICK if quick else CONTROL_DURATION

    routing, routing_meta, _, _ = serve_day(
        "routing", policy, quality, latencies,
        duration=fleet_duration, deadline=ROUTING_DEADLINE,
        queue_limit=ROUTING_QUEUE_LIMIT,
    )
    admission, admission_meta, _, _ = serve_day(
        "admission", policy, quality, latencies,
        duration=fleet_duration, deadline=ADMISSION_DEADLINE,
        queue_limit=ADMISSION_QUEUE_LIMIT,
    )
    control, control_meta, workload, controlled = serve_day(
        "control", policy, quality, latencies,
        duration=control_duration, deadline=CONTROL_DEADLINE,
        queue_limit=CONTROL_QUEUE_LIMIT, control=control_config(),
    )

    fleet_failures = []
    control_failures = []
    if not quick:
        fleet_failures += check_size(routing_meta, FLEET_MIN_QUERIES)
        fleet_failures += check_routing(routing)
        fleet_failures += check_admission(admission)
        control_failures += check_size(control_meta, CONTROL_MIN_QUERIES)
        control_failures += check_slo(control)
        control_failures += check_actuation(control)
    control_failures += check_determinism(
        policy, latencies, workload, controlled
    )
    fleet_failures += separation_regressions(
        "routing", routing_separation(routing), committed_fleet, quick,
        REGRESSION_FACTOR,
    )
    control_failures += separation_regressions(
        "SLO", slo_separation(control), committed_control, quick,
        REGRESSION_FACTOR,
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    write_json(FLEET_RESULTS_PATH, {
        "quick": quick,
        "n_shards": N_SHARDS,
        "base_rate": BASE_RATE,
        "duration": fleet_duration,
        "routing": {"meta": routing_meta, "rows": routing},
        "admission": {"meta": admission_meta, "rows": admission},
        "separation": routing_separation(routing),
        "dmr_factor": DMR_FACTOR,
        "quality_tolerance": QUALITY_TOLERANCE,
        "p50_factor": P50_FACTOR,
        "regression_factor": REGRESSION_FACTOR,
        "failures": fleet_failures,
    })
    write_fleet_table(routing, admission, routing_meta, admission_meta)
    print(f"wrote {FLEET_TABLE_PATH}")
    write_json(CONTROL_RESULTS_PATH, {
        "quick": quick,
        "n_shards": N_SHARDS,
        "base_rate": BASE_RATE,
        "duration": control_duration,
        "miss_target": MISS_TARGET,
        "meta": control_meta,
        "rows": control,
        "separation": slo_separation(control),
        "action_log_entries": len(controlled.control_log),
        "breach_factor": BREACH_FACTOR,
        "accuracy_floor": ACCURACY_FLOOR,
        "regression_factor": REGRESSION_FACTOR,
        "failures": control_failures,
    })
    write_control_table(control, control_meta, controlled)
    print(f"wrote {CONTROL_TABLE_PATH}")

    failures = fleet_failures + control_failures
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
