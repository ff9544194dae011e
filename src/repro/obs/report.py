"""Plain-text run report for a traced serving run.

``render_report`` turns a :class:`~repro.serving.records.ServingResult`
plus the :class:`~repro.obs.tracer.RecordingTracer` that observed it
into the report the ``python -m repro trace`` subcommand prints: query
outcomes, latency and deadline-slack percentiles, buffer depth over
simulated time (sparkline), per-worker utilization, and scheduler
invocation cost in both simulated and real wall-clock terms.

``render_profile`` is the companion for ``python -m repro trace
--profile`` and ``python -m repro profile``:
the per-phase latency attribution table, DP step-phase wall clock, and
the top-K blame report with each query's critical task/worker chain
(see :mod:`repro.obs.profile`).

``render_top`` and ``render_incident`` are the live-ops views:
``render_top`` formats one console frame (what a ``--live`` run of
``trace`` or ``fleet`` repaints and ends with) from the
:class:`~repro.obs.live.LiveTelemetry` planes of a running (or
finished) run — per-source window rates, quantiles from the snapshot
digest checkpoints, a throughput sparkline and the incident tally —
and ``render_incident`` is the post-mortem header for one frozen
incident bundle (``python -m repro incident``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.metrics.tables import format_table
from repro.obs.tracer import RecordingTracer

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: np.ndarray) -> str:
    """Unicode block sparkline of ``values`` scaled to their max."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return ""
    peak = float(values.max())
    if peak <= 0:
        return _BLOCKS[0] * values.size
    levels = np.minimum(
        (values / peak * (len(_BLOCKS) - 1)).round().astype(int),
        len(_BLOCKS) - 1,
    )
    return "".join(_BLOCKS[level] for level in levels)


def _percentile_row(label: str, values: np.ndarray) -> List[object]:
    if values.size == 0:
        nan = float("nan")
        return [label, 0, nan, nan, nan, nan, nan]
    return [
        label,
        int(values.size),
        float(values.mean()),
        float(np.percentile(values, 50)),
        float(np.percentile(values, 95)),
        float(np.percentile(values, 99)),
        float(values.max()),
    ]


def _fault_lines(result, tracer: RecordingTracer) -> List[str]:
    """Fault & degraded-mode section — empty for fault-free runs."""
    metrics = tracer.metrics
    failed = int(metrics.counter("tasks.failed").value)
    retried = int(metrics.counter("tasks.retried").value)
    crashes = int(metrics.counter("workers.crashes").value)
    degraded = int(metrics.counter("queries.degraded").value)
    if not (failed or retried or crashes or degraded):
        return []
    lines = [
        "fault injection & degraded mode:",
        f"  task failures: {failed}  retries: {retried}  "
        f"worker crashes: {crashes}  degraded answers: {degraded} "
        f"({100.0 * result.degraded_rate():.1f}% of queries)",
    ]
    by_reason = []
    for reason in ("fault", "timeout", "crash"):
        count = int(metrics.counter(f"tasks.failed.{reason}").value)
        if count:
            by_reason.append(f"{reason}={count}")
    if by_reason:
        lines.append("  failure reasons: " + "  ".join(by_reason))
    if tracer.worker_downtime:
        downtime = "  ".join(
            f"w{worker}={seconds:.2f}s"
            for worker, seconds in sorted(tracer.worker_downtime.items())
        )
        lines.append(f"  worker downtime: {downtime}")
    lines.append("")
    return lines


def _digest_lines(metrics) -> List[str]:
    """Online-percentile section: what the bounded-memory digests saw.

    These are the *streaming* estimates (t-digest-backed histograms fed
    span by span), printed next to the exact post-hoc table above so
    the two can be eyeballed against each other.
    """
    lines = ["streaming digests (online estimates, bounded memory):"]
    for name in ("query.latency_s", "deadline.slack_s"):
        if name not in metrics:
            continue
        hist = metrics.get(name)
        if hist.count == 0:
            lines.append(f"  {name}: no observations")
            continue
        lines.append(
            f"  {name}: n={hist.count}  retained={hist.n_retained()}  "
            f"p50={hist.quantile(0.5):.4f}  p95={hist.quantile(0.95):.4f}  "
            f"p99={hist.quantile(0.99):.4f}"
        )
    lines.append("")
    return lines


def _slo_lines(monitor) -> List[str]:
    """SLO section — rolling windows, burn rates, detected episodes."""
    config = monitor.config
    summary = monitor.summary()
    lines = [
        f"slo (miss budget {100.0 * config.miss_target:.1f}%, "
        f"alert window {config.alert_window:g}s, "
        f"breach at burn >= {config.breach_burn:g}x):",
        f"  run total: {summary['events']} events  "
        f"miss rate {100.0 * summary['miss_rate']:.1f}%"
        if summary["events"]
        else "  run total: no resolved queries",
    ]
    for length, stats in sorted(summary["windows"].items()):
        if stats["events"]:
            lines.append(
                f"  window {length:g}s: events={int(stats['events'])}  "
                f"miss={100.0 * stats['miss_rate']:.1f}%  "
                f"burn={stats['burn_rate']:.2f}x"
            )
        else:
            lines.append(f"  window {length:g}s: empty")
    episodes = monitor.episodes
    if episodes:
        lines.append(f"  overload episodes: {len(episodes)}")
        for i, episode in enumerate(episodes):
            end = (
                f"{episode.end:.2f}s" if episode.end is not None
                else "open at trace end"
            )
            lines.append(
                f"    #{i + 1}: t={episode.start:.2f}s -> {end} "
                f"(peak burn {episode.peak_burn:.2f}x)"
            )
    else:
        lines.append("  overload episodes: none detected")
    lines.append("")
    return lines


def render_slo(monitor) -> str:
    """Standalone SLO section text — the ``python -m repro slo`` output
    (the same section ``render_report`` embeds for live-monitored runs).
    """
    return "\n".join(_slo_lines(monitor)).rstrip("\n")


def render_report(
    result,
    tracer: RecordingTracer,
    duration: Optional[float] = None,
    n_bins: int = 48,
) -> str:
    """Render the run report text.

    Args:
        result: The :class:`ServingResult` of the traced run.
        tracer: The recording tracer that observed it.
        duration: Trace duration in simulated seconds; defaults to the
            tracer's last event time.
        n_bins: Time bins for the buffer-depth timeline.
    """
    metrics = tracer.metrics
    horizon = duration if duration is not None else tracer.end_time
    horizon = max(float(horizon), 1e-9)

    n = len(result)
    processed = sum(r.processed for r in result.records)
    rejected = sum(r.rejected for r in result.records)
    lines = [
        f"serving run report — policy={result.policy_name!r}",
        f"  queries: {n}  processed: {processed}  rejected: {rejected}  "
        f"deadline-miss rate: {result.deadline_miss_rate():.3f}",
        f"  simulated duration: {horizon:.3f}s  "
        f"spans: {len(tracer.spans)}",
        "",
    ]
    lines.extend(_fault_lines(result, tracer))

    stats = result.latency_stats()
    slack = result.deadline_slack()
    lines.append(format_table(
        ["metric", "n", "mean", "p50", "p95", "p99", "max"],
        [
            ["latency (s)", int(result.latencies().size), stats["mean"],
             stats["p50"], stats["p95"], stats["p99"], stats["max"]],
            _percentile_row("deadline slack (s)", slack),
        ],
        title="latency & deadline slack (positive slack = met early)",
    ))
    lines.append("")

    lines.extend(_digest_lines(metrics))
    slo = getattr(tracer, "slo", None)
    if slo is not None:
        lines.extend(_slo_lines(slo))

    depth = metrics.gauge("buffer.depth")
    binned = depth.binned_max(horizon, n_bins)
    depth_summary = depth.summary()
    lines.append(
        f"buffer depth over time ({n_bins} bins of "
        f"{horizon / n_bins:.3f}s, peak={binned.max():.0f}, "
        f"mean sample={0.0 if depth_summary['samples'] == 0 else depth_summary['mean']:.2f})"
    )
    lines.append("  |" + sparkline(binned) + "|")
    lines.append("")

    utilization = tracer.utilization(horizon)
    if utilization:
        rows = [
            [f"worker {worker}",
             f"model {tracer.worker_model.get(worker, '?')}",
             tracer.worker_busy[worker],
             100.0 * frac]
            for worker, frac in utilization.items()
        ]
        lines.append(format_table(
            ["worker", "serves", "busy (s)", "utilization %"],
            rows,
            title="per-worker utilization (busy seconds / trace duration)",
        ))
    else:
        lines.append("per-worker utilization: no tasks dispatched")
    lines.append("")

    invocations = int(metrics.counter("scheduler.invocations").value)
    lines.append(
        f"scheduler: {invocations} invocations, "
        f"{result.scheduler_work_units} work units, "
        f"total real wall-clock {result.scheduler_wall_time * 1e3:.2f}ms"
    )
    if invocations:
        wall = metrics.histogram("scheduler.wall_s").summary()
        sim = metrics.histogram("scheduler.overhead_sim_s").summary()
        batch = metrics.histogram("scheduler.batch_size").summary()
        plan = metrics.histogram("plan.size").summary()
        lines.append(format_table(
            ["per invocation", "mean", "p50", "p95", "p99", "max"],
            [
                ["real wall-clock (ms)"] + [
                    wall[k] * 1e3 for k in ("mean", "p50", "p95", "p99", "max")
                ],
                ["simulated overhead (ms)"] + [
                    sim[k] * 1e3 for k in ("mean", "p50", "p95", "p99", "max")
                ],
                ["batch size"] + [
                    batch[k] for k in ("mean", "p50", "p95", "p99", "max")
                ],
                ["plan size (models/query)"] + [
                    plan[k] for k in ("mean", "p50", "p95", "p99", "max")
                ],
            ],
        ))
    return "\n".join(lines)


def _top_row(source: str, snap) -> List[object]:
    """One ``render_top`` table row from a source's latest snapshot."""
    window = snap.counters
    totals = snap.totals
    done = totals.get("queries.completed", 0.0)
    rejected = totals.get("queries.rejected", 0.0)
    resolved = done + rejected
    reject_pct = 100.0 * rejected / resolved if resolved else 0.0
    p50 = snap.quantile("query.latency_s", 0.5)
    p95 = snap.quantile("query.latency_s", 0.95)
    return [
        source,
        f"{snap.time:.1f}",
        f"{window.get('queries.arrived', 0.0):.0f}"
        f"/{window.get('queries.completed', 0.0):.0f}"
        f"/{window.get('queries.rejected', 0.0):.0f}",
        f"{done:.0f}",
        f"{reject_pct:.1f}",
        f"{1e3 * p50:.1f}" if p50 == p50 else "-",
        f"{1e3 * p95:.1f}" if p95 == p95 else "-",
        f"{snap.gauges.get('buffer.depth', 0.0):.0f}",
    ]


def render_top(lives, n_bins: int = 48) -> str:
    """One console frame of the live telemetry plane(s).

    Args:
        lives: The :class:`~repro.obs.live.LiveTelemetry` planes to
            show, one table row each (first is the primary source, the
            one whose throughput sparkline and incident tally render
            below the table; a fleet plane's
            :attr:`~repro.obs.live.LiveTelemetry.sources` lists it
            first, then its shard planes).
        n_bins: Recent snapshot windows in the throughput sparkline.
    """
    lives = list(lives)
    if not lives:
        return "live top: no telemetry planes attached"
    rows = []
    for live in lives:
        snap = live.latest
        if snap is None:
            rows.append(
                [live.source, "-", "-/-/-", "0", "0.0", "-", "-", "-"]
            )
        else:
            rows.append(_top_row(live.source, snap))
    primary = lives[0]
    cadence = primary.config.cadence
    lines = [
        f"live top — {len(lives)} source"
        f"{'s' if len(lives) != 1 else ''}, "
        f"snapshot cadence {cadence:g}s",
        "",
        format_table(
            ["source", "t(s)", "win arr/done/rej", "done",
             "rej %", "p50 ms", "p95 ms", "depth"],
            rows,
        ),
        "",
    ]
    recent = list(primary.snapshots)[-n_bins:]
    if recent:
        done_per_window = np.asarray(
            [s.counters.get("queries.completed", 0.0) for s in recent]
        )
        lines.append(
            f"completed per {cadence:g}s window ({primary.source}, "
            f"last {len(recent)} windows, peak={done_per_window.max():.0f})"
        )
        lines.append("  |" + sparkline(done_per_window) + "|")
        lines.append("")
    total_inc = sum(len(live.incidents) for live in lives)
    suppressed = sum(live.suppressed for live in lives)
    anomalies = sum(
        live.watchdog.anomalies
        for live in lives if live.watchdog is not None
    )
    lines.append(
        f"incidents: {total_inc} frozen, {suppressed} suppressed, "
        f"{anomalies} anomalous windows"
    )
    for live in lives:
        for bundle in live.incidents:
            trigger = bundle["trigger"]
            lines.append(
                f"  [{live.source}] #{bundle['seq']}: "
                f"{trigger['kind']} @ t={trigger['time']:.2f}s "
                f"({bundle['window']['spans']} ring spans)"
            )
    return "\n".join(lines)


def render_incident(bundle) -> str:
    """Post-mortem header of one incident bundle: trigger, ring window,
    embedded snapshots, control-log slice and the frozen blame list
    (``python -m repro incident`` appends the full profile re-derived
    from the bundle's spans)."""
    trigger = bundle["trigger"]
    window = bundle["window"]
    lines = [
        f"incident bundle — schema {bundle['schema']}  "
        f"source={bundle['source']}  seq={bundle['seq']}",
        f"  trigger: {trigger['kind']} @ t={trigger['time']:.3f}s"
        + (
            f" (query {trigger['query_id']})"
            if trigger.get("query_id", -1) >= 0 else ""
        ),
    ]
    if trigger.get("attrs"):
        parts = "  ".join(
            f"{key}={value}" for key, value in trigger["attrs"].items()
        )
        lines.append(f"    {parts}")
    lines.append(
        f"  ring window: t={window['start']:.3f}s -> {window['end']:.3f}s "
        f"({window['spans']} spans)"
    )
    totals = bundle.get("totals", {})
    if totals:
        keys = (
            "queries.arrived", "queries.completed", "queries.rejected",
            "slo.breaches",
        )
        shown = "  ".join(
            f"{key.split('.')[-1]}={totals[key]:.0f}"
            for key in keys if key in totals
        )
        if shown:
            lines.append(f"  totals at freeze: {shown}")
    snapshots = bundle.get("snapshots", [])
    if snapshots:
        tail = ", ".join(
            f"#{snap['seq']}@{snap['time']:g}s" for snap in snapshots
        )
        lines.append(f"  embedded snapshots: {tail}")
    control = bundle.get("control", [])
    if control:
        lines.append(f"  control actions in window: {len(control)}")
        for action in control:
            lines.append(
                f"    t={action['time']:.2f}s {action['kind']} "
                f"shard={action['shard']} level={action['level']} "
                f"burn={action['burn']:.2f}x"
            )
    blame = bundle.get("blame", [])
    if blame:
        lines.append(f"  blame (top {len(blame)} by latency at freeze):")
        for entry in blame:
            flags = "".join([
                " DEGRADED" if entry.get("degraded") else "",
                " MISSED" if entry.get("slack", 0.0) < 0 else "",
            ])
            lines.append(
                f"    q{entry['query_id']}: latency "
                f"{entry['latency']:.4f}s (slack "
                f"{entry['slack']:+.4f}s){flags} — dominant phase "
                f"{entry['dominant_phase']}"
            )
    decisions = bundle.get("decisions", {})
    if decisions:
        lines.append(
            "  decision records embedded for queries: "
            + ", ".join(f"q{qid}" for qid in decisions)
        )
    return "\n".join(lines)


def render_profile(attributor, top_k: int = 5) -> str:
    """Render a :class:`~repro.obs.profile.LatencyAttributor` as the
    ``python -m repro profile`` report: phase attribution percentiles,
    DP step-phase wall clock, and the top-``top_k`` blame entries with
    their critical-path chains."""
    from repro.obs.profile import PHASES

    artifact = attributor.to_artifact()
    counts = artifact["queries"]
    lines = [
        "latency attribution report",
        f"  attributed: {counts['attributed']}  "
        f"rejected (no phases): {counts['rejected']}  "
        f"degraded: {counts['degraded']}  retried: {counts['retried']}  "
        f"fast-path: {counts['fast_path']}  "
        f"deadline-breaching: {counts['breaching']}",
        "",
    ]

    rows = []
    latency_total = artifact["latency"]["total"]
    for phase in PHASES:
        stats = artifact["phases"][phase]
        share = (
            100.0 * stats["total"] / latency_total if latency_total else 0.0
        )
        rows.append([
            phase, stats["total"], share,
            stats["mean"], stats["p50"], stats["p95"], stats["max"],
        ])
    rows.append([
        "total latency", latency_total, 100.0 if latency_total else 0.0,
        artifact["latency"]["mean"], artifact["latency"]["p50"],
        artifact["latency"]["p95"], artifact["latency"]["max"],
    ])
    lines.append(format_table(
        ["phase", "total (s)", "share %", "mean", "p50", "p95", "max"],
        rows,
        title="per-query latency attribution (phases sum to latency)",
    ))
    lines.append("")

    if attributor.sched_phase_wall:
        wall_total = sum(attributor.sched_phase_wall.values())
        parts = "  ".join(
            f"{phase}={1e3 * seconds:.2f}ms"
            for phase, seconds in sorted(attributor.sched_phase_wall.items())
        )
        lines.append(
            f"dp step phases (real wall-clock, "
            f"{1e3 * wall_total:.2f}ms total): {parts}"
        )
        lines.append("")

    blame = attributor.blame(top_k)
    if blame:
        lines.append(f"blame report — top {len(blame)} by latency:")
        for a in blame:
            flags = "".join([
                " DEGRADED" if a.degraded else "",
                " MISSED" if a.slack < 0 else "",
            ])
            lines.append(
                f"  q{a.query_id}: latency {a.latency:.4f}s "
                f"(slack {a.slack:+.4f}s){flags} — dominant phase "
                f"{a.dominant_phase} "
                f"({a.phases[a.dominant_phase]:.4f}s); critical task "
                f"m{a.critical_model} on worker {a.critical_worker} "
                f"({a.attempts} attempt{'s' if a.attempts != 1 else ''})"
            )
            chain = attributor.critical_chain(a.query_id)
            if chain:
                shown = chain[-3:]
                blocked = ", ".join(
                    f"q{t.query_id}/m{t.model} "
                    f"[{t.start:.3f}-{t.finish:.3f}s]"
                    for t in shown
                )
                more = (
                    f" (+{len(chain) - len(shown)} earlier)"
                    if len(chain) > len(shown) else ""
                )
                lines.append(f"      blocked behind: {blocked}{more}")
    else:
        lines.append("blame report: no completed queries")
    return "\n".join(lines)
