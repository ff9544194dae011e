"""Multi-replica fleet serving: route, admit, shard, merge.

:class:`FleetServer` scales the single-server simulator horizontally
without touching its event loop: N shards each run the existing
:class:`~repro.serving.server.EnsembleServer` *unmodified*, fed by a
front end that replays the workload's arrival sequence through a
pluggable router (:mod:`repro.fleet.routers`) and fleet-wide admission
control.

The front end never simulates the shards — that would couple it to the
event loop it is supposed to stay out of. Instead it tracks a *fluid*
per-shard backlog: each admitted query is modelled as one job on a
virtual single-queue shard whose service time interpolates between the
fastest model (an easy query the scheduler will give a small subset)
and the whole ensemble's summed latency (a hard query), weighted by
the query's difficulty rank. Backlog(t) = jobs whose estimated finish
is still in the future. Admission control reads that backlog: a query
routed to a full shard (backlog >= ``queue_limit``) is redirected once
to the least-loaded shard, and shed outright if that shard is full too
— so overload is refused at the door, before any per-shard buffer
blows up. Shed queries emit a ``shed`` span plus a ``reject`` span
(``reason="shed"``), making them visible to the SLO monitor and the
fleet metrics without any shard ever seeing them.

Each shard is a streaming :class:`~repro.serving.server.ServingSession`
on the global clock, fed the queries the front end admits to it. One
run path serves every fleet: it steps in epochs, and with a
:class:`~repro.control.config.ControlConfig` it advances the sessions
to each epoch boundary and lets the SLO controller act in between. A
static fleet is the degenerate case, one epoch that admits every
arrival, so each shard's ``finish`` is exactly ``EnsembleServer.run``
over its sub-workload. The SLO monitor is fed from the outcomes the
shard sessions hand back each epoch, not from spans, so shards record
spans only when the fleet is traced. After the shards finish, a traced
fleet merges the per-shard span streams into one fleet-wide stream:
local query ids are mapped back to global ids, worker ids are offset
per shard, every span gains a ``shard`` attribute, and the whole merged
stream is replayed through the fleet's tracer in global order — so
``profile``/``slo``/``diff`` work on the fleet exactly as on a single
server, and per shard via the untouched shard results. A live plane on
the fleet tracer is thereby the fleet's one snapshot stream; the shards
keep their own planes, which ``top`` polls mid-run.

Determinism: the routers are seeded, the fluid model is pure
arithmetic, and each shard is the deterministic single-server
simulator — a fixed (seed, trace) replays to byte-identical
assignments and records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from operator import attrgetter, itemgetter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.control.controller import Controller, ControlLog
from repro.fleet.config import FleetConfig
from repro.fleet.routers import make_router
from repro.obs import spans as sp
from repro.obs.live import LiveTelemetry, TelemetrySnapshot
from repro.obs.slo import SLOMonitor
from repro.obs.spans import Span
from repro.obs.tracer import NULL_TRACER, RecordingTracer, Tracer
from repro.serving.policies import ServingPolicy
from repro.serving.records import QueryRecord, ServingResult
from repro.serving.server import EnsembleServer, WorkerSpec
from repro.serving.workload import ServingWorkload


@dataclass
class FleetResult:
    """Outcome of one fleet run: per-shard results plus the merged view.

    Attributes:
        merged: Fleet-wide :class:`ServingResult` — records in global
            query order (shed queries appear as rejected records),
            scheduler stats summed over shards, metrics from the
            fleet's merged span stream.
        shard_results: The untouched per-shard results (local query
            ids; index with ``shard_query_ids`` to go global).
        shard_query_ids: Global query ids served by each shard, in
            local order.
        shard_spans: Per-shard span lists remapped to global query and
            worker ids (with a ``shard`` attribute); ``None`` when the
            fleet ran untraced.
        assignments: Global-order shard index per query, ``-1`` = shed.
        router: Routing policy name the run used.
        n_shed: Queries refused by admission control.
        control_log: The controller's ordered action record; ``None``
            for a static fleet, which runs no controller. Its
            ``dumps()`` is the byte-identical determinism contract.
        monitor: The live :class:`~repro.obs.slo.SLOMonitor` the
            control loop ran against, fed from the outcomes the shard
            sessions hand back; ``None`` for a static fleet.
        shard_snapshots: Per-shard live telemetry snapshot streams
            (``None`` unless the fleet tracer carried a
            :class:`~repro.obs.live.LiveTelemetry`). The fleet's one
            snapshot stream is that plane's own ``snapshots``, fed the
            merged stream in global order.
    """

    merged: ServingResult
    shard_results: List[ServingResult]
    shard_query_ids: List[np.ndarray]
    shard_spans: Optional[List[List[Span]]]
    assignments: np.ndarray
    router: str
    n_shed: int
    control_log: Optional[ControlLog] = None
    monitor: Optional[SLOMonitor] = None
    shard_snapshots: Optional[List[List[TelemetrySnapshot]]] = None

    @property
    def n_shards(self) -> int:
        """Fleet size."""
        return len(self.shard_results)

    def shed_rate(self) -> float:
        """Fraction of the workload refused at admission."""
        if self.assignments.size == 0:
            return 0.0
        return self.n_shed / self.assignments.size


class FleetServer:
    """N-shard front end over unmodified :class:`EnsembleServer` loops.

    Args:
        latencies: Per-base-model inference time (shared by all shards
            — the fleet replicates one deployment).
        policy: Serving policy every shard runs (see ``policies`` for
            per-shard overrides).
        config: Frozen :class:`FleetConfig`: one
            :class:`~repro.serving.config.ServerConfig` per shard plus
            the router/admission knobs.
        workers: Optional explicit per-shard deployment (the same
            worker list is applied to every shard); defaults to one
            worker per base model per shard.
        tracer: Fleet-level observability hook; when enabled, each
            shard runs under its own :class:`RecordingTracer` and the
            merged, remapped stream is replayed through this tracer.
            Otherwise the shards run untraced, controlled or not.
        policies: Optional per-shard policy overrides (length must
            equal ``config.n_shards``); each shard may then schedule
            differently while the front end stays shared.
    """

    def __init__(
        self,
        latencies: Sequence[float],
        policy: ServingPolicy,
        config: Optional[FleetConfig] = None,
        *,
        workers: Optional[Sequence[WorkerSpec]] = None,
        tracer: Optional[Tracer] = None,
        policies: Optional[Sequence[ServingPolicy]] = None,
    ):
        self.config = config if config is not None else FleetConfig()
        if not isinstance(self.config, FleetConfig):
            raise TypeError(
                f"config must be a FleetConfig, got "
                f"{type(self.config).__name__}"
            )
        self.latencies = np.asarray(latencies, dtype=float)
        if self.latencies.ndim != 1 or np.any(self.latencies <= 0):
            raise ValueError("latencies must be a 1-d array of positives")
        self.policy = policy
        if policies is not None:
            if len(policies) != self.config.n_shards:
                raise ValueError(
                    f"policies must name one policy per shard "
                    f"({self.config.n_shards}), got {len(policies)}"
                )
            self.policies = list(policies)
        else:
            self.policies = [policy] * self.config.n_shards
        self.workers = list(workers) if workers is not None else None
        self.tracer = tracer if tracer is not None else NULL_TRACER
        cfg = self.config
        self.router = make_router(
            cfg.router,
            cfg.n_shards,
            seed=cfg.seed,
            hash_replicas=cfg.hash_replicas,
            hard_quantile=cfg.hard_quantile,
        )
        # Rotating tie-break pointer for the admission fallback
        # redirect; re-seeded at the start of every run.
        self._redirect_rr = cfg.seed % cfg.n_shards
        # Per-shard live telemetry planes of the current run (only
        # populated when the fleet tracer carries one); the `top`
        # console polls these mid-run.
        self.shard_lives: List[LiveTelemetry] = []

    @classmethod
    def from_config(
        cls,
        latencies: Sequence[float],
        policy: ServingPolicy,
        config: FleetConfig,
        *,
        workers: Optional[Sequence[WorkerSpec]] = None,
        tracer: Optional[Tracer] = None,
        policies: Optional[Sequence[ServingPolicy]] = None,
    ) -> "FleetServer":
        """Build a fleet from a validated :class:`FleetConfig`
        (mirrors :meth:`EnsembleServer.from_config`)."""
        return cls(
            latencies, policy, config,
            workers=workers, tracer=tracer, policies=policies,
        )

    @property
    def n_shards(self) -> int:
        """Fleet size."""
        return self.config.n_shards

    def _score_ranks(self, workload: ServingWorkload) -> np.ndarray:
        """Per-query difficulty percentile rank in ``[0, 1]``.

        Derived from the policy's pool-wide difficulty scores (the
        same signal the in-shard scheduler uses); constant or missing
        scores rank every query 0.5 so score-aware routing degrades
        to pure hash affinity instead of stampeding one shard.
        """
        scores = getattr(self.policy, "scores", None)
        n = workload.n_queries
        if scores is None:
            return np.full(n, 0.5)
        scores = np.asarray(scores, dtype=float)
        if scores.size == 0 or float(scores.min()) == float(scores.max()):
            return np.full(n, 0.5)
        pool_sorted = np.sort(scores)
        per_query = scores[workload.sample_indices]
        left = np.searchsorted(pool_sorted, per_query, side="left")
        right = np.searchsorted(pool_sorted, per_query, side="right")
        return (left + right) / (2.0 * scores.size)

    def _redirect_target(self, backlogs: List[int]) -> int:
        """Least-loaded shard for the admission fallback redirect.

        Ties are broken by a seeded rotating pointer instead of
        ``argmin``'s fixed lowest-index preference: under a symmetric
        backlog (every shard equally loaded — exactly the overload
        regime where redirects matter) argmin funnelled *every*
        redirect onto shard 0, defeating the load balancing the
        redirect exists for. The pointer is reset from the fleet seed
        at the start of each run, so redirect targets stay
        byte-identical for a fixed (trace, seed).
        """
        n = len(backlogs)
        least = min(backlogs)
        for step in range(n):
            shard = (self._redirect_rr + step) % n
            if backlogs[shard] == least:
                self._redirect_rr = (shard + 1) % n
                return shard
        return self._redirect_rr  # unreachable: some shard holds the min

    def _query_costs(self, ranks: np.ndarray) -> np.ndarray:
        """Fluid-model service estimate per query (seconds of work).

        Interpolates between the fastest model (rank 0: the scheduler
        will give an easy query a small subset) and the summed
        ensemble latency (rank 1: a hard query expands into the full
        pool, and summed work is what a shard's queue absorbs). The
        estimate is deliberately conservative — it prices the work the
        scheduler would spend at full quality, not the degraded subsets
        it falls back to under pressure — so admission throttles a
        shard to the rate it can serve *well*, instead of the much
        higher rate it could absorb by shredding quality. Queries the
        estimate refuses would have been served late or degraded; the
        queue_limit knob tunes how much burst the fleet rides out
        before it starts refusing.
        """
        fastest = float(self.latencies.min())
        total = float(self.latencies.sum())
        return fastest + ranks * (total - fastest)

    def run(self, workload: ServingWorkload) -> FleetResult:
        """Route, admit, run every shard, and merge the results.

        The fleet advances in epochs of ``control.interval`` simulated
        seconds:

        1. **admit** the epoch's arrivals through router + admission
           (under the *current* queue limit) and offer them to the
           shards' streaming :class:`~repro.serving.server.ServingSession`s;
        2. **advance** every session to the epoch boundary;
        3. **harvest** the outcomes the shards' sessions hand back for
           this epoch (completions, rejections), plus the front end's
           sheds, into the live :class:`~repro.obs.slo.SLOMonitor`, in
           global ``(time, shard, seq)`` order;
        4. **tick** the :class:`~repro.control.controller.Controller`
           and apply its actions: replica sets added with ``warmup``
           provisioning latency / retired LIFO, admission tightened or
           relaxed, plans clamped to the cheap subset or restored.

        After the last arrival the loop keeps epoch-stepping until the
        shards are drained *and* the controller has unwound every
        actuation (bounded by the alert window plus a full cooldown
        unwind, as a safety net). A static fleet (``config.control``
        is ``None``) is the degenerate case: one epoch that admits
        every arrival, with no monitor or controller, after which each
        shard's ``finish`` is exactly ``EnsembleServer.run`` over its
        sub-workload. Everything is deterministic — seeded router and
        rotation, fluid arithmetic, event-ordered monitor — so a fixed
        (trace, seed) replays to byte-identical records and
        ``control_log``.
        """
        if workload.n_models != self.latencies.shape[0]:
            raise ValueError(
                f"workload encodes {workload.n_models} models, fleet has "
                f"{self.latencies.shape[0]}"
            )
        cfg = self.config
        control = cfg.control
        n_shards = cfg.n_shards
        n = workload.n_queries
        tracer = self.tracer
        traced = tracer.enabled

        self.router.reset()
        self._redirect_rr = cfg.seed % n_shards
        ranks = self._score_ranks(workload)
        costs = self._query_costs(ranks)

        # Monitor breach/recovery spans and controller decision spans
        # share one side stream, in emission order.
        ctrl_tracer = RecordingTracer()
        monitor: Optional[SLOMonitor] = None
        controller: Optional[Controller] = None
        if control is not None:
            monitor = SLOMonitor(control.slo)
            controller = Controller(control, monitor, n_shards)
            monitor.bind(ctrl_tracer)
            interval = control.interval
            cheap_mask = (
                control.cheap_mask
                if control.cheap_mask is not None
                else 1 << int(np.argmin(self.latencies))
            )
            # In degraded mode every dispatch is clamped to the cheap
            # subset, whose members run in parallel on distinct workers
            # — the fluid service estimate drops to the subset's
            # bottleneck latency so admission tracks what the shards
            # actually execute (pricing full-quality work would keep
            # shedding queries the degraded fleet can absorb).
            cheap_cost = float(max(
                self.latencies[k]
                for k in range(self.latencies.shape[0])
                if (cheap_mask >> k) & 1
            ))

        # Shards record only when the merge replays their spans (a
        # traced fleet); otherwise they run untraced, and the monitor
        # is fed from the outcomes their sessions hand back. When the
        # fleet tracer carries a live plane, each shard gets its own
        # (ticked per epoch by session.advance, so `top` sees genuine
        # mid-run state) and the controller's action log is attached
        # to the fleet plane for incident bundles.
        fleet_live = tracer.live if traced else None
        self.shard_lives = []
        shard_tracers: List[RecordingTracer] = []
        if traced:
            for shard in range(n_shards):
                shard_live = None
                if fleet_live is not None:
                    shard_live = LiveTelemetry(
                        fleet_live.config, source=f"shard{shard}"
                    )
                    self.shard_lives.append(shard_live)
                shard_tracers.append(RecordingTracer(live=shard_live))
        if fleet_live is not None and controller is not None:
            fleet_live.attach_control_log(controller.log)
        servers = [
            EnsembleServer.from_config(
                self.latencies,
                self.policies[shard],
                cfg.shards[shard],
                workers=self.workers,
                tracer=shard_tracers[shard] if shard_tracers else None,
            )
            for shard in range(n_shards)
        ]
        sessions = [server.session() for server in servers]
        if monitor is not None:
            for session in sessions:
                session.outcomes = []

        # Fluid front-end state: per virtual single-queue shard, its
        # next-free time plus the (monotone) finish times of jobs still
        # in the system. Capacity-aware: an admitted query's virtual
        # service time shrinks with the shard's active replica sets, so
        # the backlog estimate tracks scaled capacity. Sets the
        # controller adds only count once their warmup elapses.
        free = [0.0] * n_shards
        finishes: List[List[float]] = [[] for _ in range(n_shards)]
        heads = [0] * n_shards  # drained prefix of each finish list
        backlogs = [0] * n_shards
        capacity = [1] * n_shards
        pending_cap: List[Tuple[float, int]] = []  # (activate_time, shard)

        def activate(until: float) -> None:
            while pending_cap and pending_cap[0][0] <= until:
                capacity[pending_cap.pop(0)[1]] += 1

        assignments = np.full(n, -1, dtype=int)
        shard_ids: List[List[int]] = [[] for _ in range(n_shards)]
        front_spans: List[Span] = []
        n_shed = 0
        eff_limit = cfg.queue_limit
        degraded = False

        def harvest(outcomes: List[Tuple[float, bool, bool]]) -> None:
            """Feed the monitor ``outcomes`` (the front end's sheds) plus
            the outcomes the shards' sessions resolved since the last
            call, in global ``(time, shard, seq)`` order: every stream
            is in resolution order, so a stable sort on time over the
            front end and then shards 0..n-1 is exactly that order."""
            for session in sessions:
                outcomes += session.outcomes
                session.outcomes.clear()
            outcomes.sort(key=itemgetter(0))
            for t_o, missed, was_degraded in outcomes:
                monitor.observe(t_o, missed=missed, degraded=was_degraded)

        qi = 0
        epoch = 0
        idle_since = None
        while True:
            if control is None:  # static: one epoch admits everything
                t_end = math.inf
            else:
                t_end = epoch * interval + interval
                activate(epoch * interval)
            outcomes: List[Tuple[float, bool, bool]] = []

            # -- 1. admit this epoch's arrivals through the front end --
            while qi < n and float(workload.arrivals[qi]) < t_end:
                qid = qi
                qi += 1
                now = float(workload.arrivals[qid])
                activate(now)
                for shard in range(n_shards):
                    done = finishes[shard]
                    head = heads[shard]
                    while head < len(done) and done[head] <= now:
                        head += 1
                    heads[shard] = head
                    backlogs[shard] = len(done) - head
                chosen = self.router.choose(
                    qid,
                    int(workload.sample_indices[qid]),
                    float(ranks[qid]),
                    backlogs,
                )
                redirected = False
                if backlogs[chosen] >= eff_limit:
                    # Admission control: one redirect to the
                    # least-loaded shard, then shed. Never admit onto a
                    # full shard.
                    fallback = self._redirect_target(backlogs)
                    if backlogs[fallback] < eff_limit:
                        chosen = fallback
                        redirected = True
                    else:
                        n_shed += 1
                        if traced:
                            front_spans.append(Span(sp.SHED, now, qid, {
                                "policy": self.router.name,
                                "backlog": backlogs[chosen],
                            }))
                            front_spans.append(Span(sp.REJECT, now, qid, {
                                "reason": "shed",
                            }))
                        outcomes.append((now, True, False))
                        continue
                assignments[qid] = chosen
                if traced:
                    front_spans.append(Span(sp.ROUTE, now, qid, {
                        "shard": chosen,
                        "backlog": backlogs[chosen],
                        "policy": self.router.name,
                        "redirected": redirected,
                    }))
                shard_ids[chosen].append(qid)
                start = max(free[chosen], now)
                cost = (
                    min(float(costs[qid]), cheap_cost)
                    if degraded else float(costs[qid])
                )
                finish = start + cost / capacity[chosen]
                free[chosen] = finish
                finishes[chosen].append(finish)
                sessions[chosen].offer(
                    now,
                    float(workload.deadlines[qid]),
                    int(workload.sample_indices[qid]),
                )
            if control is None:
                break

            # -- 2. advance every shard to the epoch boundary --
            for session in sessions:
                session.advance(t_end)

            # -- 3. harvest resolved outcomes into the monitor --
            harvest(outcomes)

            # -- 4. decide and actuate --
            for action in controller.tick(t_end):
                kind = action.kind
                if kind == sp.SCALE_UP:
                    servers[action.shard].add_replica_set(
                        t_end, warmup=control.warmup
                    )
                    pending_cap.append(
                        (t_end + control.warmup, action.shard)
                    )
                    ctrl_tracer.emit(
                        sp.SCALE_UP, t_end, shard=action.shard,
                        level=action.level, burn=action.burn,
                    )
                elif kind == sp.SCALE_DOWN:
                    servers[action.shard].retire_replica_set()
                    # Retirement is LIFO and activations are
                    # time-ordered, so the retired set is pending iff
                    # it is the newest pending entry.
                    if pending_cap and pending_cap[-1][1] == action.shard:
                        pending_cap.pop()
                    else:
                        capacity[action.shard] = max(
                            1, capacity[action.shard] - 1
                        )
                    ctrl_tracer.emit(
                        sp.SCALE_DOWN, t_end, shard=action.shard,
                        level=action.level, burn=action.burn,
                    )
                elif kind == sp.DEGRADE_MODE:
                    degraded = True
                    for server in servers:
                        server.set_cheap_mask(cheap_mask)
                    ctrl_tracer.emit(
                        sp.DEGRADE_MODE, t_end,
                        cheap_mask=cheap_mask, burn=action.burn,
                    )
                elif kind == sp.RESTORE:
                    degraded = False
                    for server in servers:
                        server.set_cheap_mask(None)
                    ctrl_tracer.emit(sp.RESTORE, t_end, burn=action.burn)
                elif kind == sp.ADMISSION_CHANGE:
                    tightened = action.queue_limit == -1
                    eff_limit = (
                        control.tightened_limit(cfg.queue_limit)
                        if tightened else cfg.queue_limit
                    )
                    ctrl_tracer.emit(
                        sp.ADMISSION_CHANGE, t_end,
                        queue_limit=eff_limit, tightened=tightened,
                    )

            epoch += 1
            if qi >= n and not any(s.pending for s in sessions):
                if idle_since is None:
                    idle_since = t_end
                if controller.settled:
                    break
                # Safety bound: alert window drains, then a full
                # cooldown-paced capacity unwind — the controller is
                # guaranteed to settle well within this.
                if t_end - idle_since > (
                    control.slo.alert_window
                    + control.cooldown * (control.max_extra_replicas + 2)
                    + interval
                ):
                    break

        shard_results = [session.finish() for session in sessions]
        if monitor is not None:
            # Fold outcomes resolved during finish (unserved rejects).
            harvest([])
        end = max(
            [t.end_time for t in shard_tracers]
            + [session.now for session in sessions]
            + [span.time for span in ctrl_tracer.spans[-1:]]
            + [float(t) for t in workload.arrivals[-1:]],
            default=0.0,
        )
        if monitor is not None:
            monitor.finalize(end)

        # -- merge: remap ids, tag shards, replay through the tracer --
        shard_query_ids = [np.asarray(ids, dtype=int) for ids in shard_ids]
        shard_spans: Optional[List[List[Span]]] = None
        if traced:
            # Scaled shards have different worker counts, so worker-id
            # offsets are cumulative over the final deployments.
            offsets = []
            total = 0
            for server in servers:
                offsets.append(total)
                total += server.n_workers
            shard_spans = []
            # Global order is (time, stream, index) over the streams
            # front end, shards 0..n-1, control (which sorts after
            # every shard at the same instant): a stable sort on time
            # over their concatenation is exactly that order.
            merged_stream = list(front_spans)
            for shard, shard_tracer in enumerate(shard_tracers):
                ids = shard_query_ids[shard]
                offset = offsets[shard]
                remapped = []
                for span in shard_tracer.spans:
                    attrs = dict(span.attrs)
                    attrs["shard"] = shard
                    if "worker" in attrs:
                        attrs["worker"] = int(attrs["worker"]) + offset
                    gid = (
                        int(ids[span.query_id])
                        if span.query_id >= 0 else -1
                    )
                    remapped.append(Span(span.kind, span.time, gid, attrs))
                shard_spans.append(remapped)
                merged_stream += remapped
            merged_stream += ctrl_tracer.spans
            merged_stream.sort(key=attrgetter("time"))
            for span in merged_stream:
                tracer.emit(span.kind, span.time, span.query_id, **span.attrs)
            tracer.finalize(end)

        shard_snapshots: Optional[List[List[TelemetrySnapshot]]] = None
        if self.shard_lives:
            shard_snapshots = [
                list(live.snapshots) for live in self.shard_lives
            ]

        merged = self._merge_results(
            workload, assignments, shard_results, shard_query_ids
        )
        return FleetResult(
            merged=merged,
            shard_results=shard_results,
            shard_query_ids=shard_query_ids,
            shard_spans=shard_spans,
            assignments=assignments,
            router=self.router.name,
            n_shed=n_shed,
            control_log=controller.log if controller is not None else None,
            monitor=monitor,
            shard_snapshots=shard_snapshots,
        )

    def _merge_results(
        self, workload, assignments, shard_results, shard_query_ids
    ) -> ServingResult:
        """Fleet-wide :class:`ServingResult` in global query order."""
        records: List[Optional[QueryRecord]] = [None] * workload.n_queries
        for shard, result in enumerate(shard_results):
            ids = shard_query_ids[shard]
            for local, record in enumerate(result.records):
                records[int(ids[local])] = dc_replace(
                    record, query_id=int(ids[local])
                )
        for qid in range(workload.n_queries):
            if records[qid] is None:  # shed at admission
                records[qid] = QueryRecord(
                    query_id=qid,
                    sample_index=int(workload.sample_indices[qid]),
                    arrival=float(workload.arrivals[qid]),
                    deadline=float(
                        workload.arrivals[qid] + workload.deadlines[qid]
                    ),
                    rejected=True,
                )
        return ServingResult(
            records=records,
            policy_name=(
                f"{self.policy.name}@fleet"
                f"[{self.router.name}x{self.n_shards}]"
            ),
            scheduler_invocations=sum(
                r.scheduler_invocations for r in shard_results
            ),
            scheduler_work_units=sum(
                r.scheduler_work_units for r in shard_results
            ),
            scheduler_wall_time=sum(
                r.scheduler_wall_time for r in shard_results
            ),
            metrics=self.tracer.metrics,
        )
