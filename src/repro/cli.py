"""Command-line entry point: run the paper's experiments from a shell.

Usage::

    python -m repro list
    python -m repro table1 [--preset small|default] [--seed N]
    python -m repro sweep --task text_matching [--preset small]
    python -m repro day --task text_matching
    python -m repro schedulers --task text_matching
    python -m repro budget --task vehicle_counting
    python -m repro trace --task text_matching [--policy schemble] [--profile] [--live]
    python -m repro faults --task text_matching [--rates 0,0.05,0.15,0.3]
    python -m repro explain QUERY_ID --decisions traces/..._decisions.jsonl
    python -m repro slo --spans traces/..._spans.jsonl [--slo-target 0.05]
    python -m repro profile --spans traces/..._spans.jsonl [--top 5]
    python -m repro diff traces/base_profile.json traces/new_profile.json
    python -m repro fleet --task text_matching [--shards 4] [--control] [--live]
    python -m repro distill --task text_matching [--decisions traces/..._decisions.jsonl]
    python -m repro incident traces/..._incident_00.json

Each command builds the task setup (training the models on first use),
runs the corresponding experiment and prints its table. The commands are
thin wrappers over :mod:`repro.experiments`, useful for exploring
configurations without writing a script. ``trace`` additionally runs an
observed serving run and writes the span stream (JSONL), a Chrome
``trace_event`` timeline (open in chrome://tracing or Perfetto) and a
plain-text run report to ``--out``; its ``--failure-rate`` / ``--jitter``
/ ``--crash-rate`` flags inject a :class:`~repro.faults.FaultPlan` so the
fault lifecycle (task_failed/retry/worker_down/degraded_answer spans)
shows up in the timeline and report. ``faults`` sweeps transient failure
rates and compares graceful degradation against drop-on-failure.

``trace`` also writes per-query scheduler decision records
(``*_decisions.jsonl``) and a Prometheus text scrape of the run's
metrics (``*_metrics.prom``); with ``--slo-target`` it attaches an
online :class:`~repro.obs.slo.SLOMonitor` so burn rates and overload
episodes appear in the report. ``explain`` pretty-prints the decision
records of one query id; ``slo`` replays a recorded span stream through
the monitor offline.

``trace --profile`` profiles the run (DP step-phase timers on) and
appends the per-query latency attribution: phase breakdown, DP
step-phase wall clock, and the top-K blame report with critical-path
chains; it writes a ``*_profile.json`` artifact beside the spans.
``profile --spans`` attributes an existing span dump offline the same
way. ``diff`` compares two such artifacts (or raw span dumps) and flags
phase-level regressions with noise-floored thresholds, exiting 1 when
any are found — the CI regression gate.

Serving-side behaviour for ``trace``/``faults`` is described by a single
:class:`~repro.serving.config.ServerConfig` inside a
:class:`~repro.experiments.runner.RunSpec` — commands build one spec
instead of plumbing individual ``allow_rejection``/``max_buffer`` knobs.

``fleet`` serves one day trace on a multi-replica fleet
(:mod:`repro.fleet`): a comparison table of every routing policy
against an equal-capacity single server. ``--control`` closes the loop
(:mod:`repro.control`): the ``--router`` fleet is served once more
under the SLO-driven controller (replica scaling, admission
tightening, degraded-quality mode), which adds a ``controlled`` row
and the controller's action counts. The ``--router`` fleet — the
controlled one with ``--control`` — is the observed run: with
``--out`` it is traced and its merged and per-shard span streams,
metrics scrape and (with ``--control``) the byte-stable controller
action log are written for ``profile``/``slo`` offline.

``distill`` trains the learned fast-path scheduler
(:mod:`repro.scheduling.policy_fast`): it replays a DP-scheduled run
(or reads an existing ``*_decisions.jsonl``), extracts per-query
feature rows from the decision log
(:mod:`repro.scheduling.distill`), fits the imitation policy and the
regret estimator, and writes a frozen ``PolicyModel`` JSON artifact.
``trace``/``fleet`` then accept ``--scheduler learned
--policy-model ARTIFACT [--regret-threshold T]`` to serve with the
distilled policy: buffers small enough for the DP's loop form go
straight to the exact DP, and larger ones fall back to it when their
predicted regret reaches the threshold (``--regret-threshold 0``
reproduces the DP run bit-exactly).

``trace`` and ``fleet`` take ``--live`` to attach the live telemetry
plane (:mod:`repro.obs.live`): streaming snapshots at ``--cadence``
simulated seconds, the always-on flight recorder, and breach-triggered
incident bundles, all written next to the other artifacts (a fleet's
shard planes beside each shard's spans). A live run ends with the live
console's frame: per-source rates, quantiles and the incident tally,
one row per plane. When stdout is a terminal the run goes on a worker
thread and the console repaints while it goes.
``--serve-metrics PORT`` implies ``--live`` and additionally exposes
``/metrics`` (Prometheus text) and ``/snapshot`` (JSON) over HTTP on a
daemon thread while the run executes (``--serve-hold`` keeps the
endpoint up after the run so scripts can scrape a finished run).
``incident`` is the post-mortem: it pretty-prints a frozen incident
bundle and re-derives the full latency profile from the bundle's
flight-recorder spans.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.experiments.overall import average_over_deadlines, run_deadline_sweep
from repro.experiments.offline_budget import run_offline_budget
from repro.experiments.scheduler_ablation import run_scheduler_ablation
from repro.experiments.setups import TASKS, build_setup
from repro.experiments.trace_segments import run_day_trace
from repro.metrics.tables import format_table

COMMANDS = (
    "list", "table1", "sweep", "day", "schedulers", "budget", "trace",
    "faults", "explain", "slo", "profile", "diff", "fleet", "distill",
    "incident",
)

TRACE_POLICIES = (
    "original", "static", "des", "gating", "schemble_ea", "schemble"
)


def _add_common(parser: argparse.ArgumentParser, default_task: bool = True):
    if default_task:
        parser.add_argument(
            "--task", choices=TASKS, default="text_matching",
            help="application to run (default: text_matching)",
        )
    parser.add_argument(
        "--preset", choices=("small", "default"), default="small",
        help="experiment scale (default: small)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--duration", type=float, default=30.0,
        help="simulated trace length in seconds",
    )


def _add_fault_args(parser: argparse.ArgumentParser):
    """Fault-injection knobs shared by ``trace`` and ``faults``."""
    parser.add_argument(
        "--jitter", type=float, default=0.0,
        help="lognormal sigma on worker service times (default: 0)",
    )
    parser.add_argument(
        "--straggler-prob", type=float, default=0.0,
        help="probability a task runs straggler-slow (default: 0)",
    )
    parser.add_argument(
        "--crash-rate", type=float, default=0.0,
        help="worker crashes per worker-second (default: 0)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-task timeout in seconds (default: none)",
    )
    parser.add_argument(
        "--retries", type=int, default=2,
        help="retry budget per task (default: 2)",
    )


def _add_scheduler_args(parser: argparse.ArgumentParser):
    """Scheduler-override knobs shared by ``trace`` and ``fleet``."""
    parser.add_argument(
        "--scheduler", choices=("dp", "learned"), default=None,
        help="override the buffered policy's scheduler: 'dp' forces a "
        "fresh exact DP, 'learned' serves the distilled fast-path "
        "policy with a DP fallback (default: keep the setup's own)",
    )
    parser.add_argument(
        "--policy-model", default=None,
        help="PolicyModel artifact written by `python -m repro "
        "distill` (required with --scheduler learned)",
    )
    parser.add_argument(
        "--regret-threshold", type=float, default=0.5,
        help="estimated utility gap above which the learned scheduler "
        "falls back to exact DP; 0 falls back everywhere and is "
        "bit-identical to --scheduler dp (default: 0.5)",
    )


def _add_live_args(parser: argparse.ArgumentParser):
    """Live telemetry knobs shared by ``trace`` and ``fleet``."""
    parser.add_argument(
        "--live", action="store_true",
        help="attach the live telemetry plane: streaming snapshots, "
        "flight recorder and incident bundles (written next to the "
        "other artifacts), and end with the live console's frame "
        "(repainted while the run goes on a terminal)",
    )
    parser.add_argument(
        "--cadence", type=float, default=1.0,
        help="simulated seconds between telemetry snapshots "
        "(default: 1.0)",
    )
    parser.add_argument(
        "--serve-metrics", type=int, default=None, metavar="PORT",
        help="expose /metrics (Prometheus) and /snapshot (JSON) over "
        "HTTP on this port while the run executes (0 = ephemeral; "
        "implies --live)",
    )
    parser.add_argument(
        "--serve-hold", type=float, default=0.0,
        help="wall-clock seconds to keep the --serve-metrics endpoint "
        "up after the run finishes (default: 0)",
    )


def _add_slo_args(parser: argparse.ArgumentParser):
    """SLO monitoring knobs shared by ``trace``, ``faults`` and ``slo``."""
    parser.add_argument(
        "--slo-target", type=float, default=None,
        help="deadline-miss error budget (fraction, e.g. 0.05); "
        "enables online SLO monitoring",
    )
    parser.add_argument(
        "--slo-window", type=float, default=10.0,
        help="alert window in simulated seconds (default: 10)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The `python -m repro` argument parser (one subcommand per family)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Schemble (ICDE 2023) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available tasks and commands")

    table1 = sub.add_parser(
        "table1", help="Table I: all baselines x all tasks"
    )
    _add_common(table1, default_task=False)

    sweep = sub.add_parser(
        "sweep", help="Figs. 6-8: accuracy/DMR vs deadline for one task"
    )
    _add_common(sweep)

    day = sub.add_parser(
        "day", help="Figs. 9/14: one-day bursty trace, per-segment metrics"
    )
    _add_common(day)

    schedulers = sub.add_parser(
        "schedulers", help="Fig. 12: greedy orders vs DP quantisation steps"
    )
    _add_common(schedulers)

    budget = sub.add_parser(
        "budget", help="Fig. 16: offline accuracy under runtime budgets"
    )
    _add_common(budget)

    trace = sub.add_parser(
        "trace",
        help="traced serving run: spans (JSONL), Perfetto timeline, report",
    )
    _add_common(trace)
    trace.add_argument(
        "--policy", choices=TRACE_POLICIES, default="schemble",
        help="serving policy to trace (default: schemble)",
    )
    trace.add_argument(
        "--out", default="traces",
        help="output directory for span/timeline/report files",
    )
    _add_scheduler_args(trace)
    _add_fault_args(trace)
    trace.add_argument(
        "--failure-rate", type=float, default=0.0,
        help="transient per-task failure probability (default: 0)",
    )
    trace.add_argument(
        "--no-degraded", action="store_true",
        help="drop partially-failed queries instead of answering "
        "from the executed subset",
    )
    trace.add_argument(
        "--fault-seed", type=int, default=17,
        help="seed of the fault plan RNG (default: 17)",
    )
    trace.add_argument(
        "--profile", action="store_true",
        help="profile the run: DP step-phase timers on, a "
        "*_profile.json artifact beside the spans and the latency "
        "attribution report appended (input for `diff`)",
    )
    _add_slo_args(trace)
    _add_live_args(trace)

    faults = sub.add_parser(
        "faults",
        help="resilience sweep: degraded-mode vs drop-on-failure "
        "accuracy across task-failure rates",
    )
    _add_common(faults)
    faults.add_argument(
        "--policy", choices=TRACE_POLICIES, default="schemble",
        help="serving policy to stress (default: schemble)",
    )
    faults.add_argument(
        "--rates", default="0,0.05,0.15,0.3",
        help="comma-separated task-failure rates to sweep",
    )
    _add_fault_args(faults)
    _add_slo_args(faults)

    explain = sub.add_parser(
        "explain",
        help="pretty-print the scheduler decision records of one query",
    )
    explain.add_argument(
        "query_id", type=int, help="query id to explain",
    )
    explain.add_argument(
        "--decisions", required=True,
        help="decision JSONL written by `trace` (*_decisions.jsonl)",
    )

    slo = sub.add_parser(
        "slo",
        help="replay a recorded span stream through the SLO monitor",
    )
    slo.add_argument(
        "--spans", required=True,
        help="span JSONL written by `trace` (*_spans.jsonl)",
    )
    _add_slo_args(slo)
    slo.add_argument(
        "--min-events", type=int, default=20,
        help="events required in the alert window before the detector "
        "may fire (default: 20)",
    )

    profile = sub.add_parser(
        "profile",
        help="per-query latency attribution, critical paths and the "
        "blame report of a span dump (`trace --profile` profiles a "
        "fresh run)",
    )
    profile.add_argument(
        "--spans", required=True,
        help="span JSONL written by `trace` or `fleet` (*_spans.jsonl); "
        "the profile artifact is written beside it",
    )
    profile.add_argument(
        "--top", type=int, default=5,
        help="blame report entries (default: 5)",
    )

    fleet = sub.add_parser(
        "fleet",
        help="multi-replica fleet serving: compare every routing policy "
        "against one equal-capacity single server on a day trace; "
        "--control adds the SLO-driven control loop (replica scaling, "
        "admission tightening, degradation)",
    )
    _add_common(fleet)
    fleet.add_argument(
        "--policy", choices=TRACE_POLICIES, default="schemble",
        help="serving policy every shard runs (default: schemble)",
    )
    fleet.add_argument(
        "--shards", type=int, default=4,
        help="number of server shards (default: 4)",
    )
    fleet.add_argument(
        "--router", choices=("hash", "power_of_two", "score_aware"),
        default="power_of_two",
        help="router of the observed fleet — the one --control closes "
        "the loop on and --out/--live trace (the comparison table "
        "always covers all three; default: power_of_two)",
    )
    fleet.add_argument(
        "--queue-limit", type=int, default=64,
        help="admission capacity per shard, in queries (default: 64)",
    )
    fleet.add_argument(
        "--control", action="store_true",
        help="also serve the --router fleet under the SLO-driven "
        "controller: adds a 'controlled' row, its action counts and "
        "overload episodes",
    )
    fleet.add_argument(
        "--interval", type=float, default=1.0,
        help="controller decision period in simulated seconds "
        "(with --control; default: 1.0)",
    )
    fleet.add_argument(
        "--warmup", type=float, default=2.0,
        help="replica-set provisioning latency in simulated seconds "
        "(with --control; default: 2.0)",
    )
    fleet.add_argument(
        "--max-extra", type=int, default=4,
        help="cap on extra replica sets the controller may hold "
        "(with --control; default: 4)",
    )
    _add_scheduler_args(fleet)
    _add_live_args(fleet)
    fleet.add_argument(
        "--out", default=None,
        help="when set, trace the observed fleet and write its merged "
        "and per-shard span streams (JSONL), a Prometheus metrics "
        "scrape and, with --control, the controller action log "
        "(JSONL, byte-stable across same-seed reruns) to this "
        "directory — inputs for `python -m repro profile|slo "
        "--spans ...`",
    )

    distill = sub.add_parser(
        "distill",
        help="train the learned fast-path scheduler from a DP-scheduled "
        "run's decision log and write the PolicyModel artifact",
    )
    _add_common(distill)
    distill.add_argument(
        "--policy", choices=TRACE_POLICIES, default="schemble",
        help="buffered policy whose DP decisions to imitate "
        "(default: schemble)",
    )
    distill.add_argument(
        "--decisions", default=None,
        help="existing decision JSONL written by `trace` "
        "(*_decisions.jsonl); omitted, a fresh DP-scheduled run is "
        "replayed to generate one",
    )
    distill.add_argument(
        "--out", default="artifacts",
        help="output directory for the PolicyModel artifact "
        "(default: artifacts)",
    )
    distill.add_argument(
        "--model", choices=("auto", "gbdt", "mlp"), default="auto",
        help="imitation model family; auto picks by validation "
        "exact-mask accuracy (default: auto)",
    )
    distill.add_argument(
        "--val-fraction", type=float, default=0.25,
        help="fraction of scheduling rounds held out for model "
        "selection (default: 0.25)",
    )

    incident = sub.add_parser(
        "incident",
        help="post-mortem of one frozen incident bundle: trigger, "
        "ring window, blame, and the profile re-derived from the "
        "bundle's spans",
    )
    incident.add_argument(
        "bundle",
        help="incident bundle JSON written by a --live run "
        "(*_incident_NN.json)",
    )
    incident.add_argument(
        "--top", type=int, default=5,
        help="blame entries in the re-derived profile (default: 5)",
    )
    incident.add_argument(
        "--explain", action="store_true",
        help="also pretty-print any decision records embedded for the "
        "blamed queries",
    )

    diff = sub.add_parser(
        "diff",
        help="compare two runs' profile artifacts (or span dumps) and "
        "flag phase-level regressions; exit 1 when any are found",
    )
    diff.add_argument(
        "base", help="baseline profile artifact (*_profile.json) or "
        "span JSONL",
    )
    diff.add_argument(
        "new", help="candidate profile artifact or span JSONL",
    )
    diff.add_argument(
        "--sim-rel", type=float, default=0.05,
        help="relative threshold for simulated-time metrics "
        "(deterministic per seed; default: 0.05)",
    )
    diff.add_argument(
        "--wall-ratio", type=float, default=1.6,
        help="blow-up ratio a wall-clock metric must exceed "
        "(default: 1.6)",
    )
    diff.add_argument(
        "--wall-floor", type=float, default=1e-3,
        help="absolute seconds a wall-clock metric must additionally "
        "grow by (noise floor; default: 1e-3)",
    )
    return parser


def _cmd_list() -> str:
    lines = ["tasks:"]
    lines += [f"  {task}" for task in TASKS]
    lines.append("commands:")
    lines += [f"  {command}" for command in COMMANDS]
    return "\n".join(lines)


def _cmd_table1(args) -> str:
    rows = []
    for task in TASKS:
        setup = build_setup(task, args.preset, seed=args.seed)
        sweep = run_deadline_sweep(
            setup, duration=args.duration, seed=args.seed + 5
        )
        averaged = average_over_deadlines(sweep)
        for name, stats in averaged.items():
            rows.append(
                [task, name, 100 * stats["accuracy"], 100 * stats["dmr"]]
            )
    return format_table(
        ["task", "method", "accuracy %", "DMR %"],
        rows,
        title="Table I (reproduced)",
    )


def _cmd_sweep(args) -> str:
    setup = build_setup(args.task, args.preset, seed=args.seed)
    sweep = run_deadline_sweep(setup, duration=args.duration, seed=args.seed + 5)
    rows = []
    for name, series in sweep["methods"].items():
        rows.append(
            [name]
            + [f"{a:.3f}/{d:.3f}" for a, d in zip(series["accuracy"], series["dmr"])]
        )
    return format_table(
        ["method (acc/dmr)"] + [f"dl={dl}" for dl in sweep["deadlines"]],
        rows,
        title=f"deadline sweep — {args.task}",
    )


def _cmd_day(args) -> str:
    setup = build_setup(args.task, args.preset, seed=args.seed)
    out = run_day_trace(
        setup,
        baselines=("original", "static", "gating", "schemble"),
        deadline=min(setup.deadline_grid),
        duration=max(args.duration, 120.0),
        seed=args.seed + 5,
    )
    rows = [
        [name, out[name]["overall_accuracy"], out[name]["overall_dmr"]]
        for name in out
    ]
    return format_table(
        ["method", "accuracy", "DMR"],
        rows,
        title=f"one-day trace — {args.task}",
    )


def _cmd_schedulers(args) -> str:
    setup = build_setup(args.task, args.preset, seed=args.seed)
    out = run_scheduler_ablation(
        setup,
        deadlines=[setup.deadline_grid[0], setup.deadline_grid[-1]],
        duration=min(args.duration, 12.0),
        seed=args.seed + 5,
    )
    rows = []
    for name, series in out["methods"].items():
        rows.append(
            [name]
            + [f"{a:.3f}/{d:.3f}" for a, d in zip(series["accuracy"], series["dmr"])]
        )
    return format_table(
        ["scheduler (acc/dmr)"] + [f"dl={dl}" for dl in out["deadlines"]],
        rows,
        title=f"scheduler ablation — {args.task}",
    )


def _fault_plan(args, n_workers: int, duration: float):
    """Build the FaultPlan the ``trace`` fault flags describe (or None)."""
    from repro.faults import FaultPlan

    plan = FaultPlan(
        seed=args.fault_seed,
        latency_jitter=args.jitter,
        straggler_prob=args.straggler_prob,
        task_failure_rate=args.failure_rate,
    )
    if args.crash_rate > 0:
        plan = plan.with_random_crashes(
            n_workers=n_workers,
            duration=duration,
            crash_rate=args.crash_rate,
            mean_downtime=2.0,
            seed=args.fault_seed + 1,
        )
    return None if plan.is_null else plan


def _slo_monitor(args):
    """Build the SLOMonitor ``--slo-target`` asks for (or None)."""
    if getattr(args, "slo_target", None) is None:
        return None
    from repro.obs import SLOConfig, SLOMonitor

    window = args.slo_window
    return SLOMonitor(SLOConfig(
        miss_target=args.slo_target,
        windows=(window, 10.0 * window, 60.0 * window),
        alert_window=window,
        min_events=getattr(args, "min_events", 20),
    ))


def _live_plane(args, source: str = "server"):
    """The LiveTelemetry plane the live flags ask for (or None).

    ``--serve-metrics`` implies ``--live``: an endpoint without the
    plane could only serve final metrics, never snapshots.
    """
    if not args.live and args.serve_metrics is None:
        return None
    from repro.obs import LiveConfig, LiveTelemetry

    return LiveTelemetry(LiveConfig(cadence=args.cadence), source=source)


def _start_metrics_server(args, tracer):
    """Start the --serve-metrics endpoint (or return None)."""
    if args.serve_metrics is None:
        return None
    from repro.obs import MetricsServer

    server = MetricsServer(tracer, port=args.serve_metrics).start()
    # Announce before the run so scripts can scrape mid-run.
    print(
        f"serving /metrics and /snapshot at {server.url}",
        file=sys.stderr, flush=True,
    )
    return server


def _stop_metrics_server(server, hold: float) -> None:
    """Optionally hold the endpoint open, then shut it down."""
    if server is None:
        return
    if hold > 0:
        import time

        time.sleep(hold)
    server.stop()


#: Wall-clock seconds between repaints of a live run's console.
REFRESH_S = 0.5


def _run_live(run, live):
    """Return ``run()``; on a terminal, repaint the live console meanwhile.

    Without a plane, or when stdout is not a terminal, the run goes on
    this thread. Otherwise it goes on a daemon thread, so Ctrl-C
    aborts the command, while this thread repaints the console from
    the plane and the planes it merges every ``REFRESH_S`` until the
    run ends.
    """
    if live is None or not sys.stdout.isatty():
        return run()
    import threading

    from repro.obs import render_top

    box = {}

    def work():
        try:
            box["result"] = run()
        except BaseException as exc:  # re-raised on this thread
            box["error"] = exc

    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    while True:
        # Clear screen + home, then repaint.
        print("\x1b[2J\x1b[H" + render_top(live.sources), flush=True)
        thread.join(REFRESH_S)
        if not thread.is_alive():
            break
    if "error" in box:
        raise box["error"]
    return box["result"]


def _live_footer(live, written) -> List[str]:
    """Footer lines for a run that carried a live plane: the console's
    final frame, then the plane's artifacts and incident tally."""
    from repro.obs import render_top

    lines = ["", render_top(live.sources), ""]
    lines += [f"wrote {path}" for path in written]
    lines.append(
        f"live telemetry: {len(live.snapshots)} snapshots, "
        f"{len(live.incidents)} incident bundle"
        f"{'s' if len(live.incidents) != 1 else ''}"
        + (f" ({live.suppressed} suppressed)" if live.suppressed else "")
    )
    for bundle in live.incidents:
        trigger = bundle["trigger"]
        lines.append(
            f"  incident #{bundle['seq']}: {trigger['kind']} "
            f"@ t={trigger['time']:.2f}s — inspect with "
            f"`python -m repro incident {written[1 + bundle['seq']]}`"
            if len(written) > 1 + bundle["seq"]
            else f"  incident #{bundle['seq']}: {trigger['kind']} "
            f"@ t={trigger['time']:.2f}s"
        )
    return lines


def _cmd_trace(args) -> str:
    from repro.experiments.runner import RunSpec, run_spec
    from repro.obs import (
        DecisionLog,
        LatencyAttributor,
        RecordingTracer,
        render_report,
        write_chrome_trace,
        write_prometheus,
        write_spans_jsonl,
    )
    from repro.serving.config import ServerConfig

    setup = build_setup(args.task, args.preset, seed=args.seed)
    workers = setup.workers_for(args.policy)
    n_workers = len(workers) if workers is not None else setup.n_models
    plan = _fault_plan(
        args, n_workers=n_workers,
        duration=args.duration,
    )
    spec = RunSpec(
        policy=args.policy,
        config=ServerConfig(
            faults=plan,
            task_timeout=args.timeout,
            max_retries=args.retries,
            degraded_answers=not args.no_degraded,
        ),
        duration=args.duration,
        seed=args.seed + 5,
        scheduler=args.scheduler,
        policy_model=args.policy_model,
        regret_threshold=args.regret_threshold,
    )
    live = _live_plane(args)
    tracer = RecordingTracer(
        slo=_slo_monitor(args), profile=args.profile, live=live
    )
    explain_log = DecisionLog()
    if live is not None:
        # Bundles then embed the blamed queries' decision records.
        live.attach_decisions(explain_log)
    metrics_server = _start_metrics_server(args, tracer)
    result = _run_live(
        lambda: run_spec(setup, spec, tracer=tracer, explain=explain_log),
        live,
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.task}_{args.policy}"
    spans = tracer.spans
    spans_path = write_spans_jsonl(spans, out_dir / f"{stem}_spans.jsonl")
    timeline_path = write_chrome_trace(
        spans, out_dir / f"{stem}_timeline.json"
    )
    decisions_path = explain_log.write_jsonl(
        out_dir / f"{stem}_decisions.jsonl"
    )
    prom_path = write_prometheus(
        tracer.metrics, out_dir / f"{stem}_metrics.prom"
    )
    report = render_report(result, tracer, duration=args.duration)
    report_path = out_dir / f"{stem}_report.txt"
    report_path.write_text(report + "\n")

    footer_lines = [
        "",
        f"wrote {spans_path}",
        f"wrote {timeline_path}  (open in chrome://tracing or "
        "https://ui.perfetto.dev)",
        f"wrote {decisions_path}  (inspect with `python -m repro explain "
        f"QUERY_ID --decisions {decisions_path}`)",
        f"wrote {prom_path}",
        f"wrote {report_path}",
    ]
    if args.scheduler == "learned":
        counter = tracer.metrics.counter
        size_routed = int(counter("sched.size_routed").value)
        fallbacks = int(counter("sched.fallbacks").value)
        fast_served = int(counter("sched.fast_served").value)
        offered = fallbacks + fast_served
        rate = fallbacks / offered if offered else 0.0
        footer_lines.append(
            f"learned scheduler: {size_routed} size-routed to the DP, "
            f"{fallbacks} DP fallbacks, {fast_served} fast-served over "
            f"{int(counter('scheduler.invocations').value)} invocations "
            f"({100 * rate:.1f}% fallback rate over {offered} offered "
            f"calls, threshold {args.regret_threshold:g})"
        )
    if args.profile:
        footer_lines.append("")
        footer_lines.extend(_profile_lines(
            LatencyAttributor.from_tracer(tracer),
            out_dir / f"{stem}_profile.json",
            top_k=5,
        ))
    if live is not None:
        footer_lines.extend(
            _live_footer(live, live.write_artifacts(out_dir, stem))
        )
    _stop_metrics_server(metrics_server, args.serve_hold)
    return report + "\n".join(footer_lines)


def _cmd_faults(args) -> str:
    from repro.experiments.resilience import run_resilience_sweep

    setup = build_setup(args.task, args.preset, seed=args.seed)
    rates = [float(r) for r in args.rates.split(",") if r.strip()]
    out = run_resilience_sweep(
        setup,
        failure_rates=rates,
        policy=args.policy,
        duration=args.duration,
        max_retries=args.retries,
        latency_jitter=args.jitter,
        straggler_prob=args.straggler_prob,
        task_timeout=args.timeout,
        crash_rate=args.crash_rate,
        seed=args.seed + 5,
    )
    rows = []
    for mode in ("degraded", "drop"):
        series = out["modes"][mode]
        rows.append(
            [mode]
            + [
                f"{a:.3f}/{d:.3f}"
                for a, d in zip(series["accuracy"], series["dmr"])
            ]
        )
    degraded_pct = [
        f"{100 * v:.1f}%" for v in out["modes"]["degraded"]["degraded_rate"]
    ]
    retries = [f"{int(v)}" for v in out["modes"]["degraded"]["retries"]]
    rows.append(["degraded answers"] + degraded_pct)
    rows.append(["retries"] + retries)
    if args.slo_target is not None:
        for mode in ("degraded", "drop"):
            rows.append(
                [f"slo burn ({mode})"]
                + [
                    f"{d / args.slo_target:.2f}x"
                    + (" BREACH" if d >= args.slo_target else "")
                    for d in out["modes"][mode]["dmr"]
                ]
            )
    return format_table(
        ["mode (acc/dmr)"] + [f"fail={r}" for r in out["failure_rates"]],
        rows,
        title=(
            f"resilience sweep — {args.task} / {out['policy']} "
            "(degraded-mode vs drop-on-failure)"
        ),
    )


def _cmd_explain(args) -> str:
    from repro.obs import DecisionLog, format_decision

    path = Path(args.decisions)
    if not path.exists():
        raise SystemExit(f"no decision log at {path}")
    log = DecisionLog.read_jsonl(path)
    records = log.for_query(args.query_id)
    if not records:
        raise SystemExit(
            f"query {args.query_id} has no decision records in {path} "
            f"({len(log)} records total)"
        )
    n_models = max(
        (mask.bit_length()
         for r in records
         for mask in [r.chosen_mask, *r.candidate_masks]),
        default=0,
    )
    blocks = [format_decision(r, n_models=n_models) for r in records]
    if len(blocks) > 1:
        blocks.insert(0, f"{len(blocks)} planning rounds for query "
                         f"{args.query_id} (last one stuck):")
    return "\n\n".join(blocks)


def _cmd_slo(args) -> str:
    from repro.obs import SLOConfig, read_spans_jsonl, render_slo, replay_spans

    path = Path(args.spans)
    if not path.exists():
        raise SystemExit(f"no span dump at {path}")
    window = args.slo_window
    config = SLOConfig(
        miss_target=(
            args.slo_target if args.slo_target is not None else 0.05
        ),
        windows=(window, 10.0 * window, 60.0 * window),
        alert_window=window,
        min_events=args.min_events,
    )
    spans = read_spans_jsonl(path)
    monitor = replay_spans(spans, config)
    header = (
        f"slo replay — {path} ({len(spans)} spans, "
        f"{monitor.events} resolved queries)"
    )
    return header + "\n" + render_slo(monitor)


def _profile_lines(attributor, artifact_path: Path, top_k: int) -> List[str]:
    """Write the profile artifact; return the attribution report and the
    lines naming the artifact."""
    from repro.obs import render_profile, write_profile_json

    write_profile_json(attributor.to_artifact(), artifact_path)
    return [
        render_profile(attributor, top_k=top_k),
        f"wrote {artifact_path}",
        f"diff against another run with `python -m repro diff "
        f"{artifact_path} OTHER_profile.json`",
    ]


def _cmd_profile(args) -> str:
    from repro.obs import LatencyAttributor

    spans_path = Path(args.spans)
    if not spans_path.exists():
        raise SystemExit(f"no span dump at {spans_path}")
    stem = spans_path.name
    for suffix in ("_spans.jsonl", ".jsonl"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
            break
    return "\n".join(_profile_lines(
        LatencyAttributor.from_jsonl(spans_path),
        spans_path.parent / f"{stem}_profile.json",
        top_k=args.top,
    ))


def _load_profile_artifact(path: Path):
    """A profile artifact from either an artifact JSON or a span dump."""
    from repro.obs import LatencyAttributor, read_profile_json

    if not path.exists():
        raise SystemExit(f"no profile artifact or span dump at {path}")
    try:
        return read_profile_json(path)
    except ValueError:
        # Not an artifact — attribute the span stream on the fly.
        return LatencyAttributor.from_jsonl(path).to_artifact()


def _cmd_diff(args):
    from repro.obs import diff_profiles

    base = _load_profile_artifact(Path(args.base))
    new = _load_profile_artifact(Path(args.new))
    diff = diff_profiles(
        base, new,
        sim_rel=args.sim_rel,
        wall_ratio=args.wall_ratio,
        wall_floor=args.wall_floor,
    )
    header = f"profile diff — base={args.base}  new={args.new}"
    return header + "\n" + diff.render(), 0 if diff.ok else 1


def _cmd_fleet(args) -> str:
    from repro.experiments.fleet import (
        default_control_config,
        run_fleet_comparison,
    )
    from repro.experiments.runner import RunSpec, make_workload, resolve_policy
    from repro.experiments.trace_segments import make_day_trace
    from repro.obs import RecordingTracer, write_prometheus, write_spans_jsonl

    setup = build_setup(args.task, args.preset, seed=args.seed)
    policy = resolve_policy(setup, RunSpec(
        policy=args.policy,
        scheduler=args.scheduler,
        policy_model=args.policy_model,
        regret_threshold=args.regret_threshold,
    ))
    # The task's bursty day trace with the tightest grid deadline: the
    # workload `run_spec` builds for the same seed.
    workload = make_workload(
        setup,
        make_day_trace(setup, duration=args.duration, seed=args.seed + 5),
        deadline=min(setup.deadline_grid),
        seed=args.seed + 6,
    )
    control = (
        default_control_config(
            interval=args.interval,
            warmup=args.warmup,
            max_extra_replicas=args.max_extra,
            seed=args.seed,
        )
        if args.control
        else None
    )
    live = _live_plane(args, source="fleet")
    tracer = (
        RecordingTracer(live=live)
        if args.out is not None or live is not None
        else None
    )
    metrics_server = _start_metrics_server(args, tracer)
    comparison, observed = _run_live(lambda: run_fleet_comparison(
        setup.latencies,
        policy,
        workload,
        setup.quality,
        n_shards=args.shards,
        queue_limit=args.queue_limit,
        router=args.router,
        control=control,
        workers=setup.workers_for(args.policy),
        seed=args.seed,
        tracer=tracer,
    ), live)
    headers = ["serving", "accuracy", "DMR", "p99 ms", "shed"]
    title = (
        f"fleet comparison — {args.task} / {args.policy} "
        f"({args.shards} shards vs 1x{args.shards} capacity"
    )
    if control is not None:
        headers.append("degraded")
        title += f", control interval {args.interval:g}s"
    rows = []
    for name, row in comparison.items():
        cells = [
            name,
            f"{row['accuracy']:.3f}",
            f"{row['dmr']:.3f}",
            f"{1e3 * row['p99']:.1f}" if row["p99"] == row["p99"] else "-",
            f"{100 * row['shed_rate']:.1f}%",
        ]
        if control is not None:
            cells.append(f"{100 * row['degraded_rate']:.1f}%")
        rows.append(cells + [f"{int(row['scheduler_invocations'])}"])
    table = format_table(headers + ["sched calls"], rows, title=title + ")")
    lines = [table]
    if control is not None:
        counts = observed.control_log.counts()
        actions = ", ".join(
            f"{kind} x{count}" for kind, count in sorted(counts.items())
        ) or "none"
        lines += [
            "",
            f"controller actions: {actions}",
            f"overload episodes: {len(observed.monitor.episodes)}",
        ]
    live_written: List[Path] = []
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{args.task}_fleet_{args.router}" + (
            "_control" if control is not None else ""
        )
        written = [
            write_spans_jsonl(tracer.spans, out_dir / f"{stem}_spans.jsonl"),
            write_prometheus(
                tracer.metrics, out_dir / f"{stem}_metrics.prom"
            ),
        ]
        for shard, spans in enumerate(observed.shard_spans):
            written.append(write_spans_jsonl(
                spans, out_dir / f"{stem}_shard{shard}_spans.jsonl"
            ))
        if control is not None:
            log_path = out_dir / f"{stem}_log.jsonl"
            log_text = observed.control_log.dumps()
            log_path.write_text(log_text + "\n" if log_text else "")
            written.append(log_path)
        traced = (
            f"controlled {args.router}" if control is not None
            else args.router
        )
        lines += (
            ["", f"traced {traced}: shed {observed.n_shed} of "
                 f"{len(observed.assignments)} queries"]
            + [f"wrote {path}" for path in written]
            + [f"inspect with `python -m repro profile --spans "
               f"{written[0]}` or `python -m repro slo --spans "
               f"{written[0]}`"]
        )
        if live is not None:
            # The fleet plane's artifacts, then each shard plane's
            # beside that shard's spans.
            live_written = live.write_artifacts(out_dir, stem)
            for plane in live.sources[1:]:
                live_written += plane.write_artifacts(
                    out_dir, f"{stem}_{plane.source}"
                )
    if live is not None:
        lines.extend(_live_footer(live, live_written))
    _stop_metrics_server(metrics_server, args.serve_hold)
    return "\n".join(lines)


def _cmd_distill(args) -> str:
    from repro.obs import DecisionLog
    from repro.scheduling.distill import distill_policy

    setup = build_setup(args.task, args.preset, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if args.decisions is not None:
        path = Path(args.decisions)
        if not path.exists():
            raise SystemExit(f"no decision log at {path}")
        log = DecisionLog.read_jsonl(path)
    else:
        # Replay a DP-scheduled run to generate the oracle decisions;
        # same seed offset as `trace`, so the log matches what
        # `python -m repro trace --scheduler dp` would have written.
        from repro.experiments.runner import RunSpec, run_spec

        spec = RunSpec(
            policy=args.policy,
            duration=args.duration,
            seed=args.seed + 5,
            scheduler="dp",
        )
        log = DecisionLog()
        run_spec(setup, spec, explain=log)
        decisions_path = out_dir / (
            f"{args.task}_{args.policy}_decisions.jsonl"
        )
        log.write_jsonl(decisions_path)
        written.append(decisions_path)

    policy_model = distill_policy(
        log,
        setup.latencies,
        setup.schemble.utilities,
        model=args.model,
        val_fraction=args.val_fraction,
        seed=args.seed,
    )
    artifact_path = out_dir / f"policy_{args.task}.json"
    policy_model.save(artifact_path)
    written.append(artifact_path)

    meta = policy_model.metadata
    rows = [
        ["kind", meta["chosen"]],
        ["training rounds / rows", f"{meta['rounds']} / {meta['rows']}"],
        ["val rounds / rows",
         f"{meta['val_rounds']} / {meta['val_rows']}"],
    ]
    for kind, acc in meta["val_accuracy"].items():
        rows.append([f"val exact-mask acc ({kind})", f"{acc:.4f}"])
    rows += [
        ["mean regret (train)", f"{meta['mean_regret']:.4f}"],
        ["max regret (train)", f"{meta['max_regret']:.4f}"],
        ["regret estimator MAE", f"{meta['regret_mae']:.4f}"],
    ]
    table = format_table(
        ["", ""],
        rows,
        title=f"distilled policy — {args.task} / {args.policy}",
    )
    footer = "\n".join(
        [""]
        + [f"wrote {path}" for path in written]
        + [
            f"serve with `python -m repro trace --task {args.task} "
            f"--scheduler learned --policy-model {artifact_path}`",
        ]
    )
    return table + footer


def _cmd_incident(args) -> str:
    from repro.obs import (
        DecisionRecord,
        LatencyAttributor,
        Span,
        format_decision,
        read_incident_json,
        render_incident,
        render_profile,
    )

    path = Path(args.bundle)
    if not path.exists():
        raise SystemExit(f"no incident bundle at {path}")
    try:
        bundle = read_incident_json(path)
    except ValueError as exc:
        raise SystemExit(str(exc))

    spans = []
    for payload in bundle.get("spans", []):
        payload = dict(payload)
        kind = payload.pop("kind")
        time = float(payload.pop("time"))
        query_id = int(payload.pop("query_id", -1))
        spans.append(Span(kind, time, query_id, payload))
    attributor = LatencyAttributor()
    attributor.attribute(spans)

    parts = [
        f"incident post-mortem — {path}",
        render_incident(bundle),
        "profile re-derived from the bundle's flight-recorder window:",
        render_profile(attributor, top_k=args.top),
    ]
    if args.explain and bundle.get("decisions"):
        for qid in sorted(bundle["decisions"], key=int):
            for state in bundle["decisions"][qid]:
                parts.append(format_decision(DecisionRecord.from_dict(state)))
    return "\n\n".join(parts)


def _cmd_budget(args) -> str:
    setup = build_setup(args.task, args.preset, seed=args.seed)
    out = run_offline_budget(setup, seed=args.seed + 5)
    rows = [
        [name] + [f"{v:.3f}" for v in series]
        for name, series in out["methods"].items()
    ]
    return format_table(
        ["method"] + [f"{1e3*b:.0f}ms" for b in out["budgets"]],
        rows,
        title=f"offline budgets — {args.task}",
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "list": lambda: _cmd_list(),
        "table1": lambda: _cmd_table1(args),
        "sweep": lambda: _cmd_sweep(args),
        "day": lambda: _cmd_day(args),
        "schedulers": lambda: _cmd_schedulers(args),
        "budget": lambda: _cmd_budget(args),
        "trace": lambda: _cmd_trace(args),
        "faults": lambda: _cmd_faults(args),
        "explain": lambda: _cmd_explain(args),
        "slo": lambda: _cmd_slo(args),
        "profile": lambda: _cmd_profile(args),
        "diff": lambda: _cmd_diff(args),
        "fleet": lambda: _cmd_fleet(args),
        "distill": lambda: _cmd_distill(args),
        "incident": lambda: _cmd_incident(args),
    }
    out = handlers[args.command]()
    # Handlers return either text or (text, exit_code) — `diff` uses
    # the exit code as its CI regression gate.
    if isinstance(out, tuple):
        text, code = out
    else:
        text, code = out, 0
    print(text)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
