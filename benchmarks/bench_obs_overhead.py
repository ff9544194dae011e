"""Benchmark guard: tracing must be free when disabled.

Run as a script (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--quick]

Three checks on a diurnal-trace workload:

* **Identity** — a run observed by a ``RecordingTracer`` (with an
  attached ``SLOMonitor``) produces exactly the same per-query records
  as an untraced run, and an explained run (``DecisionLog``) does too:
  observability only watches, never steers. The decision log's chosen
  masks are additionally checked against the served records. A
  *profiled* run (``RecordingTracer(profile=True)``) must also leave
  the records untouched and its span stream identical to the unprofiled
  one once the profile-only kinds (``sched_phase``/``queue_wait``) and
  the nondeterministic real-wall-clock ``wall_s`` attribute are set
  aside — the DP phase timers and queue-wait emitters only read clocks,
  never steer.
  A run with the *flight recorder* on (``RecordingTracer(live=...)``)
  must likewise leave the records untouched, and its span stream must
  equal the recorder-free stream once the live plane's own meta kinds
  (``snapshot``/``anomaly``/``incident``) are set aside — the live
  plane watches the stream, never steers it. Its registry must equal
  the recorder-free one too: every histogram digest (bar the
  real-wall-clock ``scheduler.wall_s``) and every counter but the
  plane's own, since snapshot boundaries checkpoint histograms by
  reference instead of compressing them. With no live plane
  attached (``live=None``, the default) the emit path is the pre-live
  code path, so the recorder-disabled identity re-proves bit-identical
  behaviour to a recorder-free build.
* **Overhead** — the default ``NullTracer`` / explain-off path must
  stay within 5% wall-clock of the pre-observability event loop. The
  baseline is the real thing: the seed commit's ``serving/server.py``
  loaded from git history and validated record-for-record against the
  current server, so the comparison times identical work. The
  always-on flight recorder gets its own gate: a live-plane tracer
  must stay within ``MAX_LIVE_OVERHEAD`` (5%) of the plain
  ``RecordingTracer``.
* **Regression** — the measured overhead is compared against the
  committed ``benchmarks/results/BENCH_obs.json`` (read *before* it is
  overwritten, the ``BENCH_sched.json`` pattern): the run fails if the
  NullTracer overhead exceeds both an absolute noise floor and
  ``REGRESSION_FACTOR`` times the committed figure, or if the
  RecordingTracer or profiling-tracer slowdown doubles. CI's perf-smoke
  job enforces this on every push.

``--quick`` shrinks the timed workload and repeat count for CI.
Results go to ``benchmarks/results/BENCH_obs.json``.
"""

import gc
import json
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from _gate import (  # noqa: E402
    NOISE_FLOOR,
    growth_regressions,
    paired_ratio,
    read_committed,
)
from repro.data.traces import diurnal_trace  # noqa: E402
from repro.obs.explain import DecisionLog  # noqa: E402
from repro.obs.live import META_KINDS, LiveConfig, LiveTelemetry  # noqa: E402
from repro.obs.metrics import Counter, StreamingHistogram  # noqa: E402
from repro.obs.slo import SLOMonitor  # noqa: E402
from repro.obs.tracer import RecordingTracer  # noqa: E402
from repro.scheduling.dp import DPScheduler  # noqa: E402
from repro.serving.policies import (  # noqa: E402
    BufferedSchedulingPolicy,
    ImmediateMaskPolicy,
)
from repro.serving.server import EnsembleServer  # noqa: E402
from repro.serving.workload import ServingWorkload  # noqa: E402

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_obs.json"

# The growth seed: last commit whose server had no tracer hooks.
BASELINE_COMMIT = "8c15a45"

LATENCIES = [0.010, 0.022, 0.045]
REPEATS = 5
# Quick mode still needs min-of-4: this gate compares two tracer
# variants ~2% apart, and min-of-2 leaves ±5% run-to-run jitter on a
# noisy CI machine.
REPEATS_QUICK = 4
OVERHEAD_DURATION = 120.0
OVERHEAD_DURATION_QUICK = 40.0
MAX_OVERHEAD = 0.05
# The flight recorder is always on once a live plane is attached, so
# its cost is gated against the plain RecordingTracer, not the bare
# baseline: ring append + snapshot windows must stay within 5%.
MAX_LIVE_OVERHEAD = 0.05
# Regression gate vs the committed BENCH_obs.json: fail only when the
# overhead is both above the absolute noise floor (_gate.NOISE_FLOOR)
# and more than REGRESSION_FACTOR times the committed figure, or when
# a tracer slowdown ratio grows past REGRESSION_FACTOR times its own.
REGRESSION_FACTOR = 2.0
#: The gated metrics, each with its absolute floor (None: no floor).
REGRESSION_FLOORS = {
    "null_tracer_overhead": NOISE_FLOOR,
    "recording_tracer_ratio": None,
    "profiling_tracer_ratio": None,
    "live_tracer_ratio": None,
}


def load_baseline_server():
    """The seed commit's EnsembleServer, loaded straight from git."""
    source = subprocess.run(
        ["git", "show", f"{BASELINE_COMMIT}:src/repro/serving/server.py"],
        cwd=REPO_ROOT, capture_output=True, text=True, check=True,
    ).stdout
    module = types.ModuleType("baseline_server")
    sys.modules["baseline_server"] = module  # dataclass() resolves this
    exec(compile(source, "baseline_server", "exec"), module.__dict__)
    return module.EnsembleServer


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


#: Span kinds only a profiling tracer emits.
PROFILE_KINDS = {"sched_phase", "queue_wait"}


def comparable_spans(spans):
    """Spans minus the profile-only kinds and the real-wall-clock
    ``wall_s`` attribute (inherently nondeterministic across runs)."""
    return [
        (
            s.kind, s.time, s.query_id,
            {k: v for k, v in s.attrs.items() if k != "wall_s"},
        )
        for s in spans
        if s.kind not in PROFILE_KINDS
    ]


#: Counters the live plane keeps about itself (its meta spans' folds).
META_COUNTERS = ("telemetry.snapshots", "anomaly.", "incident.bundles")


def registry_view(registry):
    """Histogram checkpoints without ``scheduler.wall_s`` and counters
    without the live plane's own, for the live-vs-plain comparison."""
    view = {}
    for name in registry.names():
        metric = registry.get(name)
        if isinstance(metric, Counter):
            if not name.startswith(META_COUNTERS):
                view[name] = metric.value
        elif isinstance(metric, StreamingHistogram):
            if name != "scheduler.wall_s":
                view[name] = metric.checkpoint()
    return view


def check_identity():
    """Traced/monitored/explained/profiled runs must agree
    record-for-record (and span-for-span modulo profiling extras)."""
    m = len(LATENCIES)
    utilities = np.ones((512, 1 << m))
    utilities[:, 0] = 0.0
    workload = build_workload(base_rate=60.0, duration=60.0, seed=11)

    def run(tracer, explain=None):
        policy = BufferedSchedulingPolicy(
            "schemble", DPScheduler(delta=0.05), utilities
        )
        server = EnsembleServer(
            LATENCIES, policy, tracer=tracer, explain=explain
        )
        return server.run(workload)

    plain = run(None)
    reference_tracer = RecordingTracer(slo=SLOMonitor())
    traced = run(reference_tracer)
    log = DecisionLog()
    explained = run(RecordingTracer(), explain=log)
    profiling_tracer = RecordingTracer(slo=SLOMonitor(), profile=True)
    profiled = run(profiling_tracer)
    live_tracer = RecordingTracer(
        slo=SLOMonitor(), live=LiveTelemetry(LiveConfig(cadence=1.0))
    )
    live = run(live_tracer)
    identical = (
        plain.records == traced.records
        and plain.records == explained.records
    )
    # The log must tell the truth: each served query's final decision
    # carries the mask the server actually committed.
    masks_match = all(
        (log.for_query(r.query_id)[-1].chosen_mask == r.scheduled_mask)
        for r in explained.records
        if log.for_query(r.query_id)
    )
    # Profiling must only add spans, never steer: same records, and the
    # non-profile spans match the unprofiled stream exactly (modulo the
    # real-wall-clock wall_s attribute).
    profile_spans = sum(
        s.kind in PROFILE_KINDS for s in profiling_tracer.spans
    )
    profile_identical = (
        plain.records == profiled.records
        and comparable_spans(profiling_tracer.spans)
        == comparable_spans(reference_tracer.spans)
        and profile_spans > 0
    )
    # The flight recorder must only watch: same records, and the span
    # stream minus the live plane's own meta kinds (snapshot/anomaly/
    # incident) matches the recorder-free stream exactly.
    meta_spans = sum(s.kind in META_KINDS for s in live_tracer.spans)
    live_identical = (
        plain.records == live.records
        and [
            s for s in comparable_spans(live_tracer.spans)
            if s[0] not in META_KINDS
        ]
        == comparable_spans(reference_tracer.spans)
        and meta_spans > 0
    )
    # Nor may it steer the registry: snapshot boundaries checkpoint the
    # histograms by reference, so their digests (the real-wall-clock
    # scheduler.wall_s aside) and every counter but the plane's own
    # equal the plane-free run's.
    live_registry_identical = (
        registry_view(live_tracer.metrics)
        == registry_view(reference_tracer.metrics)
    )
    return {
        "queries": workload.n_queries,
        "records_identical": identical,
        "decisions": len(log),
        "decision_masks_match": masks_match,
        "profile_identical": profile_identical,
        "profile_spans": profile_spans,
        "live_identical": live_identical,
        "live_registry_identical": live_registry_identical,
        "live_meta_spans": meta_spans,
        "live_snapshots": len(live_tracer.live.snapshots),
        "spans": "recorded",
    }, (
        identical and masks_match and profile_identical and live_identical
        and live_registry_identical
    )


def time_variants(runs, repeats=REPEATS):
    """Interleaved timing: one round runs every variant once, so slow
    machine phases hit all variants alike instead of biasing whichever
    block they land on; the starting variant rotates each round so no
    variant is pinned to one position (e.g. always last, right after
    the allocation-heaviest run). Min-of-N is the noise-robust
    statistic.

    Each run returns what it built, and that is freed only after its
    clock stops, with a full collection, so no variant's time includes
    freeing its own spans or collecting another variant's cycles."""
    samples = {name: [] for name in runs}
    names = list(runs)
    for round_idx in range(repeats):
        offset = round_idx % len(names)
        for name in names[offset:] + names[:offset]:
            start = time.perf_counter()
            built = runs[name]()
            samples[name].append(time.perf_counter() - start)
            del built
            gc.collect()
    return {name: min(times) for name, times in samples.items()}, samples


def check_overhead(quick=False):
    """NullTracer wall-clock vs the pre-observability server."""
    mask = 0b11
    duration = OVERHEAD_DURATION_QUICK if quick else OVERHEAD_DURATION
    repeats = REPEATS_QUICK if quick else REPEATS
    workload = build_workload(base_rate=400.0, duration=duration, seed=13)
    policy = ImmediateMaskPolicy("original", mask)
    BaselineServer = load_baseline_server()

    def run_baseline():
        server = BaselineServer(LATENCIES, policy)
        return server.run(workload), server

    def run_server(tracer=None):
        server = EnsembleServer(LATENCIES, policy, tracer=tracer)
        return server.run(workload), server

    # Validate the baseline before timing it: identical records mean
    # the two loops do identical work.
    assert run_server()[0].records == run_baseline()[0].records

    best, samples = time_variants({
        "baseline": run_baseline,
        "null_tracer": run_server,
        "recording_tracer": (
            lambda: run_server(RecordingTracer(keep_spans=False))
        ),
        "profiling_tracer": (
            lambda: run_server(
                RecordingTracer(keep_spans=False, profile=True)
            )
        ),
        # The flight-recorder gate pair, in the production config (the
        # CLI and fleet keep spans): the tracer stores each span once,
        # as a row, and the live plane's ring is a window over those
        # rows, so a plain span costs the plane only the boundary
        # compare.
        "recording_kept": lambda: run_server(RecordingTracer()),
        "live_tracer": (
            lambda: run_server(RecordingTracer(
                live=LiveTelemetry(LiveConfig(cadence=1.0)),
            ))
        ),
    }, repeats=repeats)
    overhead = paired_ratio(samples, "null_tracer", "baseline") - 1.0
    return {
        "queries": workload.n_queries,
        "repeats": repeats,
        "quick": quick,
        "baseline_s": best["baseline"],
        "null_tracer_s": best["null_tracer"],
        "recording_tracer_s": best["recording_tracer"],
        "profiling_tracer_s": best["profiling_tracer"],
        "recording_kept_s": best["recording_kept"],
        "live_tracer_s": best["live_tracer"],
        "null_tracer_overhead": overhead,
        "recording_tracer_ratio": paired_ratio(
            samples, "recording_tracer", "baseline"
        ),
        "profiling_tracer_ratio": paired_ratio(
            samples, "profiling_tracer", "baseline"
        ),
        "recording_kept_ratio": paired_ratio(
            samples, "recording_kept", "baseline"
        ),
        "live_tracer_ratio": paired_ratio(
            samples, "live_tracer", "baseline"
        ),
        # The flight-recorder gate: live plane cost relative to the
        # plain recording tracer it rides on (both keeping spans),
        # measured as the median of paired per-round ratios.
        "live_vs_recording_ratio": paired_ratio(
            samples, "live_tracer", "recording_kept"
        ),
        "max_allowed_overhead": MAX_OVERHEAD,
        "max_live_overhead": MAX_LIVE_OVERHEAD,
    }, overhead


def main(argv=None):
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    # The committed baseline must be read before this run overwrites it.
    committed = read_committed(RESULTS_PATH)

    identity, identical = check_identity()
    print(f"identity: {identity['queries']} queries, "
          f"records identical = {identity['records_identical']}, "
          f"{identity['decisions']} decisions, "
          f"masks match = {identity['decision_masks_match']}, "
          f"profiled identical = {identity['profile_identical']} "
          f"({identity['profile_spans']} profile spans), "
          f"live identical = {identity['live_identical']} "
          f"({identity['live_meta_spans']} meta spans, "
          f"{identity['live_snapshots']} snapshots), "
          f"live registry identical = "
          f"{identity['live_registry_identical']}")
    overhead_stats, overhead = check_overhead(quick=quick)
    print(
        f"overhead: baseline {overhead_stats['baseline_s']:.3f}s, "
        f"null tracer {overhead_stats['null_tracer_s']:.3f}s "
        f"({100 * overhead:+.2f}%), recording tracer "
        f"{overhead_stats['recording_tracer_s']:.3f}s "
        f"({overhead_stats['recording_tracer_ratio']:.2f}x), "
        f"profiling tracer {overhead_stats['profiling_tracer_s']:.3f}s "
        f"({overhead_stats['profiling_tracer_ratio']:.2f}x), "
        f"recording tracer with spans kept "
        f"{overhead_stats['recording_kept_s']:.3f}s, "
        f"live tracer {overhead_stats['live_tracer_s']:.3f}s "
        f"({overhead_stats['live_vs_recording_ratio']:.3f}x vs kept)"
    )
    regressions, regression_ok = growth_regressions(
        overhead_stats, (committed or {}).get("overhead", {}),
        REGRESSION_FACTOR, REGRESSION_FLOORS,
    )

    payload = {
        "identity": identity,
        "overhead": overhead_stats,
        "regressions": regressions,
        "regression_factor": REGRESSION_FACTOR,
        "noise_floor": NOISE_FLOOR,
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULTS_PATH}")

    if not identical:
        print("FAIL: observability changed the serving records or the "
              "live plane steered the registry")
        return 1
    if overhead > MAX_OVERHEAD:
        print(f"FAIL: NullTracer overhead {100 * overhead:.2f}% "
              f"exceeds {100 * MAX_OVERHEAD:.0f}%")
        return 1
    live_overhead = overhead_stats["live_vs_recording_ratio"] - 1.0
    if live_overhead > MAX_LIVE_OVERHEAD:
        print(f"FAIL: flight-recorder overhead {100 * live_overhead:.2f}% "
              f"over RecordingTracer exceeds "
              f"{100 * MAX_LIVE_OVERHEAD:.0f}%")
        return 1
    for failure in regressions:
        print(f"FAIL: {failure['metric']} {failure['value']:.4f} exceeds "
              f"allowed {failure['allowed']:.4f} "
              f"(committed {failure['committed']:.4f})")
    if not regression_ok:
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
