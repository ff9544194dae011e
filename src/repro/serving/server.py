"""Event-driven serving simulator.

The server deploys one worker per base model (Schemble's memory
constraint) or an explicit worker list with replicas (static selection).
Workers execute assigned tasks non-preemptively in FIFO order; the
paper's approximately-constant deep-model execution times make a
worker's availability exactly predictable, which is what both the
rejection estimate and the DP's busy-time vector rely on.

Buffered policies additionally model scheduling overhead: each scheduler
invocation charges ``overhead_base + overhead_per_unit * work_units``
of wall-clock time before its plan commits, so an over-fine quantisation
step (δ = 0.001 in Exp-4) pays for its own table size.

Construction goes through a frozen :class:`ServerConfig` (see
``serving/config.py``).

Every worker keeps an explicit FIFO of task attempts plus one float,
``free_time``: the tail of its committed work. Enqueueing advances it
with the paper's arithmetic (``start = max(free_time, now)``, then
``free_time = start + latency``), and placement, the busy-time vector,
the rejection estimate and the idle checks all read it. Fault injection
breaks the reliability assumption on purpose: an active
:class:`~repro.faults.plan.FaultPlan` draws jitter and transient
failures at task start and schedules crash windows, and the same loop
reacts with timeouts, bounded retries, failover re-planning (a crash
revokes the worker's queued commitments and re-places them onto live
siblings) and graceful degradation — a query whose tasks partially
failed is still answered from the executed subset (KNN filling +
stacking make the partial answer meaningful) instead of being dropped.
Only an injected draw or a crash corrects ``free_time``, and a null
plan schedules no fault events, so a fault-free run computes exactly
the reliable model's numbers.

Every event-loop branch can emit a query-lifecycle span through the
server's :class:`~repro.obs.tracer.Tracer`. The default ``NULL_TRACER``
keeps this free: the tracer's ``enabled`` flag is read once per run and
each emit site is guarded by that boolean. Real scheduler wall-clock
(``time.perf_counter`` around each ``schedule()`` call) is measured
unconditionally — two timer reads per invocation, negligible next to
the scheduling work itself — and surfaces as
``ServingResult.scheduler_wall_time``.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.injector import FaultInjector
from repro.obs import spans as sp
from repro.obs.explain import DecisionLog, DecisionRecord
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.scheduling.problem import QueryRequest, SchedulingInstance
from repro.serving.config import ServerConfig
from repro.serving.policies import BufferedSchedulingPolicy, ServingPolicy
from repro.serving.records import QueryRecord, ServingResult
from repro.serving.workload import ServingWorkload
from repro.utils.validation import check_positive


@dataclass
class WorkerSpec:
    """One deployed model instance."""

    model_index: int
    latency: float

    def __post_init__(self):
        if self.model_index < 0:
            raise ValueError(
                f"model_index must be >= 0, got {self.model_index}"
            )
        check_positive("latency", self.latency)


class _Task:
    """One model execution attempt."""

    __slots__ = (
        "query_id", "model_index", "attempt", "worker", "fails", "state",
        "enqueued",
    )

    def __init__(self, query_id: int, model_index: int, attempt: int = 0):
        self.query_id = query_id
        self.model_index = model_index
        self.attempt = attempt
        self.worker = -1
        self.fails = False
        self.state = "queued"  # queued | running | done | abandoned | killed
        self.enqueued = 0.0  # when this attempt last joined a queue


class _Worker:
    """One deployed model instance's run state: a non-preemptive FIFO.

    ``free_time`` is when the last committed task is expected to
    finish. A down worker (crashed, or provisioning until
    ``resume_at``) keeps its queue but starts nothing; a retired one
    drains its queue but takes no new work.
    """

    __slots__ = (
        "spec", "wid", "queue", "current", "down", "resume_at",
        "free_time", "retired",
    )

    def __init__(self, spec: WorkerSpec, wid: int, ready: float = 0.0):
        self.spec = spec
        self.wid = wid
        self.queue: deque = deque()
        self.current: Optional[_Task] = None
        self.down = False
        self.resume_at = ready
        self.free_time = ready
        self.retired = False


_free_time = attrgetter("free_time")

# Event kinds. Heap entries are ``(time, seq, kind, payload)`` with a
# unique, increasing ``seq``, so events at equal times run in push
# order and ``kind`` is never compared. The loop relies on that: the
# same-time _SCHEDULE an _ENTER_BUFFER pushes runs after every arrival
# already queued for that instant (a burst offered up front is planned
# as one batch), and a completion's follow-up planning runs inside its
# own _TASK_END handler, after the worker was released.
_ARRIVAL = 0
_ENTER_BUFFER = 1
_SCHEDULE = 2
_COMMIT = 3
_TASK_END = 4
_TASK_TIMEOUT = 5
_RETRY = 6
_WORKER_DOWN = 7
_WORKER_UP = 8
_READY = 9


class EnsembleServer:
    """Simulates serving runs of a policy over a workload.

    Args:
        latencies: Per-base-model inference time (seconds).
        policy: The serving policy under test.
        workers: Explicit deployment (for static selection with
            replicas); defaults to one worker per base model.
        config: Frozen :class:`ServerConfig` bundling every serving-loop
            knob (rejection, buffering, scheduling overhead, fault plan,
            retry policy, degraded answers). Defaults to
            ``ServerConfig()``.
        tracer: Observability hook; defaults to the zero-overhead
            ``NULL_TRACER``. Pass a ``RecordingTracer`` to collect the
            span stream and run metrics.
        explain: Opt-in :class:`~repro.obs.explain.DecisionLog`; when
            set, every scheduling decision is captured as a
            :class:`~repro.obs.explain.DecisionRecord` (inputs the
            scheduler saw, DP frontier stats, chosen mask, predicted vs
            realized finish). ``None`` (the default) keeps the serving
            loop on the unexplained path: results stay bit-identical
            and no capture code runs.
    """

    def __init__(
        self,
        latencies: Sequence[float],
        policy: ServingPolicy,
        workers: Optional[Sequence[WorkerSpec]] = None,
        *,
        config: Optional[ServerConfig] = None,
        tracer: Optional[Tracer] = None,
        explain: Optional[DecisionLog] = None,
    ):
        self.config = config if config is not None else ServerConfig()
        self.explain = explain
        self.latencies = np.asarray(latencies, dtype=float)
        if self.latencies.ndim != 1 or np.any(self.latencies <= 0):
            raise ValueError("latencies must be a 1-d array of positives")
        self.policy = policy
        if workers is None:
            workers = [
                WorkerSpec(model_index=k, latency=float(t))
                for k, t in enumerate(self.latencies)
            ]
        self._worker_specs = list(workers)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        deployed = {w.model_index for w in self._worker_specs}
        if not deployed.issubset(range(self.latencies.shape[0])):
            raise ValueError("worker references an unknown model index")
        if self.config.faults is not None:
            for window in self.config.faults.downtime:
                if window.worker >= len(self._worker_specs):
                    raise ValueError(
                        f"fault plan references worker {window.worker}, "
                        f"deployment has {len(self._worker_specs)}"
                    )
        self._session: Optional[ServingSession] = None

    @classmethod
    def from_config(
        cls,
        latencies: Sequence[float],
        policy: ServingPolicy,
        config: ServerConfig,
        *,
        workers: Optional[Sequence[WorkerSpec]] = None,
        tracer: Optional[Tracer] = None,
        explain: Optional[DecisionLog] = None,
    ) -> "EnsembleServer":
        """Build a server from a validated :class:`ServerConfig`."""
        return cls(
            latencies, policy, workers,
            config=config, tracer=tracer, explain=explain,
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, workload: ServingWorkload) -> ServingResult:
        """Replay the workload; returns per-query records.

        Exactly equivalent to opening a :class:`ServingSession`,
        offering every query up front, and finishing — the batch and
        streaming paths share one event loop, so they are
        event-for-event identical on the same inputs.
        """
        if workload.n_models != self.latencies.shape[0]:
            raise ValueError(
                f"workload encodes {workload.n_models} models, server has "
                f"{self.latencies.shape[0]}"
            )
        session = self.session()
        arrivals = workload.arrivals
        deadlines = workload.deadlines
        samples = workload.sample_indices
        for i in range(workload.n_queries):
            session.offer(
                float(arrivals[i]), float(deadlines[i]), int(samples[i])
            )
        return session.finish()

    def session(self) -> "ServingSession":
        """Open a streaming run (the control plane's entry point).

        ``offer`` queries as they arrive, ``advance`` simulated time in
        epochs, and call the actuation hooks (:meth:`add_replica_set`,
        :meth:`retire_replica_set`, :meth:`set_cheap_mask`) between
        advances; ``finish`` drains the loop and returns the
        :class:`ServingResult`. One session is active per server at a
        time; opening a new one resets the deployment to its baseline.
        """
        self._session = ServingSession(self)
        return self._session

    # ------------------------------------------------------------------
    # Control-plane actuation hooks (act on the active session, opening
    # one if none is)
    # ------------------------------------------------------------------

    def _active(self) -> "ServingSession":
        return self._session if self._session is not None else self.session()

    @property
    def n_workers(self) -> int:
        """Current deployment size (baseline plus every replica set)."""
        return len(self._active()._workers)

    def add_replica_set(
        self, now: float, warmup: float = 0.0
    ) -> List[int]:
        """Deploy one replica of the baseline worker set mid-run.

        Control-plane scale-up hook: one new worker per baseline spec,
        taking queued work from ``now + warmup`` on. Provisioning emits
        no spans. Returns the new worker ids.
        """
        return self._active()._add_replica_set(float(now) + float(warmup))

    def retire_replica_set(self) -> Optional[List[int]]:
        """Retire the most recently added replica set (LIFO).

        The baseline deployment is never retired. Retired workers
        finish the work already committed to them but are excluded from
        every placement decision and idle check from this instant on.
        Returns the retired worker ids, or ``None`` when already at
        baseline.
        """
        return self._active()._retire_replica_set()

    def set_cheap_mask(self, mask: Optional[int]) -> None:
        """Flip degraded-quality mode on (``mask``) or off (``None``).

        While set, every dispatched plan is clamped to ``mask``: the
        plan executes its intersection with the mask, or the mask
        itself when the intersection is empty — every query still gets
        an answer, just from the cheap subset. Queries whose plan was
        narrowed are marked ``degraded`` (visible to the SLO quality
        objective and scored by their executed mask).
        """
        if mask is not None:
            mask = int(mask)
            if mask < 1 or mask >= (1 << self.latencies.shape[0]):
                raise ValueError(
                    f"cheap_mask must be a non-empty bitmask over "
                    f"{self.latencies.shape[0]} models, got {mask}"
                )
        self._active()._cheap_mask = mask


class ServingSession:
    """One in-progress serving run, driven incrementally.

    Created by :meth:`EnsembleServer.session` (or implicitly by
    :meth:`EnsembleServer.run`, which is offer-everything-then-finish).
    The streaming shape exists for the control plane: a caller can
    interleave arrival offers, bounded time advances, and actuation —
    scaling, degradation — between epochs, while the event loop stays
    the single-server simulator, event-for-event identical to the
    batch path on the same inputs.

    The session owns all per-run state: the records, the event heap,
    the worker pool (baseline plus replica sets added mid-run) and the
    fault injector.

    Outcomes: a caller that steers on what the session resolves (the
    fleet's SLO monitor) sets :attr:`outcomes` to a list before
    offering. Every query then appends ``(time, missed, degraded)``
    the moment it resolves — completed (``missed`` when its slack is
    negative), or rejected (missed, not degraded) — in the order the
    ``complete``/``reject`` spans would be emitted, traced or not; the
    caller drains the list. Left ``None`` (a batch run, a static
    fleet), the session keeps none.

    Usage contract: offers carry absolute arrival times and must not
    lie in the session's past (before the last processed event);
    ``advance(t)`` processes every event at or before ``t``; every
    arrival at or before ``t`` must be offered before advancing past
    it. ``finish`` drains the loop, rejects whatever never ran, and
    builds the result. One session per server at a time — creating a
    session resets the deployment to its baseline.
    """

    def __init__(self, server: EnsembleServer):
        self._specs = server._worker_specs
        self._policy = server.policy
        self._latencies = server.latencies
        self._n_models = server.latencies.shape[0]
        tracer = server.tracer
        self._tracer = tracer
        trace = tracer.enabled
        self._trace = trace
        # Opt-in latency profiling. Off (the default), no sched_phase /
        # queue_wait span is ever emitted and the scheduler's phase
        # timers stay disabled, so the run is span-for-span and
        # bit-for-bit identical to an unprofiled one.
        prof = trace and tracer.profile
        self._prof = prof
        # Live telemetry plane (repro.obs.live), carried by the tracer.
        # Spans drive it from inside tracer.emit; the advance-boundary
        # tick below only flushes snapshot cadences through quiet
        # stretches, so epoch drivers (the control loop) get a snapshot
        # per epoch even when no span lands in it.
        self._live = tracer.live if trace else None
        scheduler = getattr(server.policy, "scheduler", None)
        self._prof_sched = None
        if prof and scheduler is not None and hasattr(scheduler, "profile"):
            self._prof_sched = scheduler
            scheduler.profile = True
        # A learned (regret-gated) scheduler exposes per-invocation
        # fallback state; cache it once so the non-learned hot path
        # pays a single None check per schedule() call.
        self._gated_sched = (
            scheduler
            if scheduler is not None
            and hasattr(scheduler, "last_used_fallback")
            else None
        )
        self._sched_wall = 0.0
        config = self._config = server.config

        # Opt-in decision explainability. When off (the default) every
        # capture site below is a single falsy check and the DP's
        # frontier-stats hook stays disabled, so the serving loop is
        # bit-identical to the unexplained path.
        explain = server.explain
        self._explain = explain
        self._explain_sched = None
        if explain is not None and scheduler is not None and hasattr(
            scheduler, "collect_stats"
        ):
            self._explain_sched = scheduler
            scheduler.collect_stats = True
        self._pending_explain = None

        self._records: Dict[int, QueryRecord] = {}
        self._events: List = []
        self._sequence = itertools.count()

        # The worker pool: the baseline deployment, then replica sets
        # added mid-run (LIFO). ``_by_model`` and ``_serving`` index the
        # workers that still take new work.
        self._workers = [
            _Worker(spec, wid) for wid, spec in enumerate(self._specs)
        ]
        self._extra_sets: List[List[_Worker]] = []
        self._cheap_mask: Optional[int] = None
        self._index_workers()
        # A null plan injects nothing: no draws, no downtime events.
        # Crash windows are pushed before any arrival, so a crash at t
        # runs ahead of an arrival at t.
        plan = config.faults
        self._injector: Optional[FaultInjector] = None
        if plan is not None and not plan.is_null:
            self._injector = FaultInjector(plan, len(self._workers))
            for worker in self._workers:
                for window in self._injector.windows_for(worker.wid):
                    self._push(window.start, _WORKER_DOWN, window)

        self._buffer: List[int] = []
        self._scheduling_busy = False
        self._invocations = 0
        self._total_work = 0
        # One QueryRequest per query per run, built lazily and reused
        # across scheduler invocations: a query that survives several
        # buffer ticks keeps its quantised-utility cache, so repeated
        # schedule() calls on overlapping buffers never re-quantise.
        self._request_cache: Dict[int, QueryRequest] = {}
        self._buffered = isinstance(server.policy, BufferedSchedulingPolicy)
        self._fastest_mask = 1 << int(np.argmin(server.latencies))
        self._n_offered = 0
        self._now = 0.0
        self._finished = False
        self.outcomes: Optional[List[Tuple[float, bool, bool]]] = None

    # -- streaming interface -------------------------------------------

    @property
    def now(self) -> float:
        """Time of the last processed event."""
        return self._now

    @property
    def pending(self) -> bool:
        """True while the event heap still holds work."""
        return bool(self._events)

    def offer(
        self, arrival: float, deadline: float, sample_index: int
    ) -> int:
        """Feed one query: absolute ``arrival``, relative ``deadline``.

        Returns the session-local query id (dense, in offer order).
        """
        if self._finished:
            raise RuntimeError("session already finished")
        arrival = float(arrival)
        if arrival + 1e-12 < self._now:
            raise ValueError(
                f"arrival {arrival} lies in the session's past "
                f"(last processed event at {self._now})"
            )
        qid = self._n_offered
        self._n_offered += 1
        heapq.heappush(
            self._events, (arrival, next(self._sequence), _ARRIVAL, qid)
        )
        self._records[qid] = QueryRecord(
            query_id=qid,
            sample_index=int(sample_index),
            arrival=arrival,
            deadline=arrival + float(deadline),
        )
        return qid

    def advance(self, until: Optional[float] = None) -> float:
        """Process every event at or before ``until`` (all, if None).

        Returns the time of the last processed event. The clock never
        moves past the events actually handled, so interleaved offers
        at or after ``until`` stay valid.
        """
        tracer = self._tracer
        trace = self._trace
        explain = self._explain
        buffered = self._buffered
        records = self._records
        events = self._events
        sequence = self._sequence
        buffer = self._buffer
        while events and (until is None or events[0][0] <= until):
            now, _, kind, payload = heapq.heappop(events)
            self._now = now
            if kind == _TASK_END:
                self._task_end(payload, now)
                if buffered:
                    self._try_schedule(now)
            elif kind == _ARRIVAL:
                if trace:
                    tracer.emit(
                        sp.ARRIVAL, now, payload,
                        deadline=records[payload].deadline,
                    )
                if buffered:
                    idle_system = (
                        self._policy.fast_path
                        and not buffer
                        and not self._scheduling_busy
                        and self._all_idle(now)
                    )
                    if idle_system:
                        # Exp-5 fast path: skip prediction + scheduling
                        # entirely when the system is idle.
                        if trace:
                            tracer.emit(sp.FAST_PATH, now, payload)
                        if explain is not None:
                            explain.add(self._explain_record(
                                records[payload], None, 0, now,
                                "fast_path", self._fastest_mask,
                                self._estimate_completion(
                                    self._fastest_mask, now
                                ),
                            ))
                        self._dispatch(
                            records[payload], self._fastest_mask, now
                        )
                        continue
                    delay = self._policy.entry_delay
                    heapq.heappush(
                        events,
                        (now + delay, next(sequence), _ENTER_BUFFER, payload),
                    )
                else:
                    self._dispatch_immediate(now, payload)
            elif kind == _ENTER_BUFFER:
                buffer.append(payload)
                if trace:
                    tracer.emit(
                        sp.ENTER_BUFFER, now, payload, depth=len(buffer)
                    )
                # Defer planning to a same-time _SCHEDULE event so every
                # arrival in this instant is in the buffer first.
                heapq.heappush(events, (now, next(sequence), _SCHEDULE, None))
            elif kind == _SCHEDULE:
                self._try_schedule(now)
            elif kind == _COMMIT:
                self._commit(now, payload)
                self._try_schedule(now)
            elif kind == _TASK_TIMEOUT:
                self._task_timeout(payload, now)
            elif kind == _RETRY:
                self._enqueue(payload, now)
            elif kind == _WORKER_DOWN:
                self._worker_down(payload, now)
            elif kind == _WORKER_UP:
                self._worker_up(payload, now)
                if buffered:
                    self._try_schedule(now)
            elif kind == _READY:
                # A provisioned replica starts what queued during its
                # warm-up; it joined the idle checks at ``free_time``
                # already, so its arrival here plans nothing.
                payload.down = False
                if payload.queue:
                    self._start_next(payload, now)
        if until is not None and self._live is not None:
            self._live.tick(until)
        return self._now

    def finish(self) -> ServingResult:
        """Drain the loop and build the run's :class:`ServingResult`."""
        if self._finished:
            raise RuntimeError("session already finished")
        self.advance(None)
        self._finished = True
        tracer = self._tracer
        now = self._now
        records = self._records
        # Anything still buffered never ran (trace ended): count as missed.
        for qid in self._buffer:
            records[qid].rejected = True
            if self._trace:
                tracer.emit(sp.REJECT, now, qid, reason="unserved")
            if self.outcomes is not None:
                self.outcomes.append((now, True, False))
        tracer.finalize(now)
        if self._explain_sched is not None:
            self._explain_sched.collect_stats = False
        if self._prof_sched is not None:
            self._prof_sched.profile = False
        return ServingResult(
            records=[records[i] for i in range(self._n_offered)],
            policy_name=self._policy.name,
            scheduler_invocations=self._invocations,
            scheduler_wall_time=self._sched_wall,
            scheduler_work_units=self._total_work,
            metrics=tracer.metrics,
        )

    # -- actuation (behind the EnsembleServer hooks) -------------------

    def _add_replica_set(self, ready: float) -> List[int]:
        added = []
        for spec in self._specs:
            worker = _Worker(spec, len(self._workers), ready)
            if ready > self._now:
                worker.down = True
                self._push(ready, _READY, worker)
            self._workers.append(worker)
            added.append(worker)
        self._extra_sets.append(added)
        self._index_workers()
        return [w.wid for w in added]

    def _retire_replica_set(self) -> Optional[List[int]]:
        if not self._extra_sets:
            return None
        retired = self._extra_sets.pop()
        for worker in retired:
            worker.retired = True
        self._index_workers()
        return [w.wid for w in retired]

    def _index_workers(self) -> None:
        self._serving = [w for w in self._workers if not w.retired]
        self._by_model: List[List[_Worker]] = [
            [] for _ in range(self._n_models)
        ]
        for worker in self._serving:
            self._by_model[worker.spec.model_index].append(worker)

    # -- committed-work estimates (all read ``free_time``) -------------

    def _least_loaded(self, model_index: int) -> _Worker:
        workers = self._by_model[model_index]
        if not workers:
            raise ValueError(f"no deployed worker serves model {model_index}")
        return min(workers, key=_free_time)

    def _busy_per_model(self, now: float) -> np.ndarray:
        """Remaining committed work per base model (min across replicas).

        Under faults "committed" is an estimate — a crash revokes
        queued work, so successive busy vectors may shrink as well as
        grow; the schedulers tolerate both (and ``inf`` for models no
        worker serves)."""
        busy = np.full(self._n_models, np.inf)
        for k, workers in enumerate(self._by_model):
            if workers:
                busy[k] = max(0.0, min(w.free_time for w in workers) - now)
        return busy

    def _estimate_completion(self, mask: int, now: float) -> float:
        """Estimated completion time of ``mask`` dispatched right now."""
        estimate = now
        for k in range(self._n_models):
            if (mask >> k) & 1:
                worker = self._least_loaded(k)
                finish = max(worker.free_time, now) + worker.spec.latency
                estimate = max(estimate, finish)
        return estimate

    def _any_idle(self, now: float) -> bool:
        limit = now + 1e-12
        for worker in self._serving:
            if worker.free_time <= limit:
                return True
        return False

    def _all_idle(self, now: float) -> bool:
        limit = now + 1e-12
        for worker in self._serving:
            if worker.free_time > limit:
                return False
        return True

    # -- tasks ----------------------------------------------------------

    def _push(self, at: float, kind: int, payload) -> None:
        heapq.heappush(self._events, (at, next(self._sequence), kind, payload))

    def _dispatch(self, record: QueryRecord, mask: int, now: float) -> None:
        cheap = self._cheap_mask
        if cheap is not None:
            # Degraded-quality mode: clamp the plan to the cheap
            # subset (or substitute it outright when disjoint) and
            # mark the answer as served below its planned quality.
            clamped = mask & cheap
            clamped = clamped if clamped else cheap
            if clamped != mask:
                record.degraded = True
                mask = clamped
        record.scheduled_mask = mask
        count = 0
        for k in range(self._n_models):
            if (mask >> k) & 1:
                self._enqueue(_Task(record.query_id, k), now)
                count += 1
        record.pending_tasks = count
        if self._trace:
            self._tracer.emit(sp.PLAN, now, record.query_id, size=count)

    def _enqueue(self, task: _Task, now: float) -> None:
        """Queue one task attempt on the least-loaded worker for its
        model (same or sibling — under faults this is the failover
        choice) and commit its expected duration."""
        worker = self._least_loaded(task.model_index)
        start = max(worker.free_time, now)
        worker.free_time = start + worker.spec.latency
        task.worker = worker.wid
        task.enqueued = now
        worker.queue.append(task)
        if worker.current is None and not worker.down:
            self._start_next(worker, now)

    def _start_next(self, worker: _Worker, now: float) -> None:
        """Start the next queued task on an up, idle worker."""
        task = worker.queue.popleft()
        latency = worker.spec.latency
        service = latency
        injector = self._injector
        if injector is not None:
            service = injector.service_time(worker.wid, latency)
            task.fails = injector.task_fails(worker.wid)
        finish = now + service
        if service != latency:
            # The draw moved this task's end, and everything queued
            # behind it.
            worker.free_time = finish + latency * len(worker.queue)
        task.state = "running"
        worker.current = task
        if self._trace:
            self._tracer.emit(
                sp.DISPATCH, now, task.query_id,
                model=task.model_index, worker=worker.wid,
                start=now, finish=finish, attempt=task.attempt,
            )
            if self._prof:
                self._tracer.emit(
                    sp.QUEUE_WAIT, now, task.query_id,
                    model=task.model_index, worker=worker.wid,
                    attempt=task.attempt, wait_s=now - task.enqueued,
                )
        self._push(finish, _TASK_END, task)
        timeout = self._config.task_timeout
        if timeout is not None and service > timeout:
            self._push(now + timeout, _TASK_TIMEOUT, task)

    def _task_end(self, task: _Task, now: float) -> None:
        """The worker finished executing ``task`` (whatever its fate)."""
        worker = self._workers[task.worker]
        if worker.current is task:
            worker.current = None
            if worker.queue:
                self._start_next(worker, now)
        if task.state != "running":
            # Abandoned by the watchdog or killed by a crash: the
            # outcome was already handled, this event only freed the
            # worker (non-preemptive executions run to the end).
            return
        task.state = "done"
        record = self._records[task.query_id]
        if task.fails:
            if self._trace:
                self._tracer.emit(
                    sp.TASK_FAILED, now, task.query_id,
                    model=task.model_index, worker=task.worker,
                    attempt=task.attempt, reason="fault",
                )
            self._task_failed(record, task, now)
            return
        record.executed_mask |= 1 << task.model_index
        record.pending_tasks -= 1
        if self._trace:
            self._tracer.emit(
                sp.TASK_DONE, now, task.query_id, model=task.model_index
            )
        if record.pending_tasks == 0:
            self._finalize(record, now)

    def _task_timeout(self, task: _Task, now: float) -> None:
        """Watchdog: stop waiting for a straggling execution."""
        if task.state != "running":
            return
        task.state = "abandoned"
        if self._trace:
            self._tracer.emit(
                sp.TASK_FAILED, now, task.query_id,
                model=task.model_index, worker=task.worker,
                attempt=task.attempt, reason="timeout",
            )
        self._task_failed(self._records[task.query_id], task, now)

    def _task_failed(
        self, record: QueryRecord, task: _Task, now: float
    ) -> None:
        """Bounded retry with backoff; exhausted tasks fail permanently
        and the query degrades (or drops) once nothing is pending."""
        config = self._config
        backoff = config.retry_backoff
        feasible = (
            now + backoff + float(self._latencies[task.model_index])
            <= record.deadline + 1e-12
        )
        if task.attempt < config.max_retries and (
            feasible or not config.allow_rejection
        ):
            record.retries += 1
            retry = _Task(
                task.query_id, task.model_index, attempt=task.attempt + 1
            )
            if self._trace:
                self._tracer.emit(
                    sp.RETRY, now, task.query_id,
                    model=task.model_index, attempt=retry.attempt,
                    backoff=backoff, reason="failure",
                )
            if backoff > 0.0:
                self._push(now + backoff, _RETRY, retry)
            else:
                self._enqueue(retry, now)
            return
        record.failed_mask |= 1 << task.model_index
        record.pending_tasks -= 1
        if record.pending_tasks == 0:
            self._finalize(record, now)

    def _finalize(self, record: QueryRecord, now: float) -> None:
        """All of a query's tasks resolved (success or permanent
        failure): complete, degrade, or drop."""
        trace = self._trace
        outcomes = self.outcomes
        if record.failed_mask:
            if not (self._config.degraded_answers and record.executed_mask):
                record.rejected = True
                if trace:
                    self._tracer.emit(
                        sp.REJECT, now, record.query_id, reason="faulted",
                    )
                if outcomes is not None:
                    outcomes.append((now, True, False))
                return
            # Answer from the executed subset: stacking's KNN filler
            # reconstructs the missing coordinates, so the partial
            # result is still a real answer (scored by its mask).
            record.degraded = True
            if trace:
                self._tracer.emit(
                    sp.DEGRADED, now, record.query_id,
                    executed_mask=record.executed_mask,
                    failed_mask=record.failed_mask,
                )
        record.completion = now
        if self._explain is not None:
            self._explain.realize(record.query_id, now, record.deadline - now)
        if outcomes is not None:
            outcomes.append(
                (now, record.deadline - now < 0.0, record.degraded)
            )
        if trace:
            if record.degraded:
                # A partial answer, or a plan narrowed by the cheap mask.
                self._tracer.emit(
                    sp.COMPLETE, now, record.query_id,
                    latency=now - record.arrival,
                    slack=record.deadline - now,
                    degraded=True,
                )
            else:
                self._tracer.emit(
                    sp.COMPLETE, now, record.query_id,
                    latency=now - record.arrival,
                    slack=record.deadline - now,
                )

    def _worker_down(self, window, now: float) -> None:
        """Crash: kill the in-flight task, revoke queued commitments and
        fail them over onto live siblings (or back onto this worker
        post-recovery, whichever is expected sooner)."""
        worker = self._workers[window.worker]
        worker.down = True
        worker.resume_at = max(worker.resume_at, window.end)
        if self._trace:
            self._tracer.emit(
                sp.WORKER_DOWN, now, worker=worker.wid, until=window.end,
            )
        self._push(window.end, _WORKER_UP, worker)
        killed = worker.current
        revoked = list(worker.queue)
        worker.current = None
        worker.queue.clear()
        # Nothing committed survives the crash: the tail restarts at
        # recovery, the revoked work is re-placed in FIFO order, and a
        # retry of the killed execution queues behind it.
        worker.free_time = worker.resume_at
        for task in revoked:
            if self._trace:
                self._tracer.emit(
                    sp.RETRY, now, task.query_id,
                    model=task.model_index, attempt=task.attempt,
                    backoff=0.0, reason="failover",
                )
            self._enqueue(task, now)
        if killed is not None:
            killed.state = "killed"
            if self._trace:
                self._tracer.emit(
                    sp.TASK_FAILED, now, killed.query_id,
                    model=killed.model_index, worker=worker.wid,
                    attempt=killed.attempt, reason="crash",
                )
            self._task_failed(self._records[killed.query_id], killed, now)

    def _worker_up(self, worker: _Worker, now: float) -> None:
        if now < worker.resume_at - 1e-12:
            # A later overlapping window extended the outage.
            return
        worker.down = False
        if self._trace:
            self._tracer.emit(sp.WORKER_UP, now, worker=worker.wid)
        # Two windows ending together deliver two recoveries; the first
        # already restarted the worker.
        if worker.queue and worker.current is None:
            self._start_next(worker, now)

    # -- planning -------------------------------------------------------

    def _explain_record(
        self, record, ctx, index, now, action, mask, predicted,
    ) -> DecisionRecord:
        """Build one :class:`DecisionRecord` at a capture site.

        ``ctx`` is the pending schedule-time context captured by
        ``_try_schedule`` (None for immediate/fast-path decisions, which
        have no buffer snapshot), ``index`` the decision's position in
        the committed plan — the DP's per-query stats are EDF-ordered
        exactly like the plan, so the index lines them up.
        """
        if ctx is not None:
            decided_at, batch, depth, busy_until, stats = ctx
        else:
            decided_at, batch, depth, stats = now, 0, 0, None
            busy_until = self._busy_per_model(now)
        frontier_size = frontier_cells = 0
        candidates: List[int] = []
        if stats is not None and index < len(stats.candidate_masks):
            candidates = list(stats.candidate_masks[index])
            frontier_cells = stats.n_cells
            if index < len(stats.frontier_sizes):
                frontier_size = stats.frontier_sizes[index]
        score_for = getattr(self._policy, "score_for", None)
        score = (
            float(score_for(record.sample_index))
            if score_for is not None else float("nan")
        )
        return DecisionRecord(
            query_id=record.query_id,
            decided_at=decided_at,
            committed_at=now,
            action=action,
            chosen_mask=mask,
            score=score,
            deadline=record.deadline,
            batch_size=batch,
            buffer_depth=depth,
            busy_until=[float(b) for b in busy_until],
            frontier_size=frontier_size,
            frontier_cells=frontier_cells,
            candidate_masks=candidates,
            predicted_finish=(
                float(predicted) if predicted is not None else None
            ),
            predicted_slack=(
                record.deadline - float(predicted)
                if predicted is not None else None
            ),
        )

    def _try_schedule(self, now: float) -> None:
        if self._scheduling_busy or not self._buffer:
            return
        if not self._any_idle(now):
            return
        policy = self._policy
        config = self._config
        records = self._records
        buffer = self._buffer
        # Snapshot the earliest-deadline slice of the buffer.
        buffer.sort(key=lambda qid: records[qid].deadline)
        snapshot = buffer[: config.max_buffer]
        del buffer[: len(snapshot)]

        queries = []
        for qid in snapshot:
            request = self._request_cache.get(qid)
            if request is None:
                record = records[qid]
                request = policy.make_request(
                    qid,
                    record.arrival,
                    record.deadline,
                    record.sample_index,
                )
                self._request_cache[qid] = request
            queries.append(request)
        busy_until = self._busy_per_model(now)
        instance = SchedulingInstance(
            queries=queries,
            latencies=self._latencies,
            busy_until=busy_until,
            now=now,
        )
        wall_start = time.perf_counter()
        result = policy.scheduler.schedule(instance)
        wall = time.perf_counter() - wall_start
        self._sched_wall += wall
        self._invocations += 1
        self._total_work += result.work_units
        overhead = (
            config.overhead_base
            + config.overhead_per_unit * result.work_units
        )
        self._scheduling_busy = True
        if self._trace:
            self._tracer.emit(
                sp.SCHEDULE, now,
                batch=len(snapshot),
                depth=len(buffer),
                work_units=result.work_units,
                overhead_sim_s=overhead,
                wall_s=wall,
            )
        gated = self._gated_sched
        if gated is not None and self._trace:
            # One verdict span per learned-scheduler invocation: did
            # the regret gate hand this buffer to the exact DP?
            self._tracer.emit(
                sp.SCHED_FALLBACK, now,
                fallback=bool(gated.last_used_fallback),
                predicted_regret=float(gated.last_predicted_regret),
            )
        prof_sched = self._prof_sched
        if self._prof and prof_sched is not None and prof_sched.last_phase_wall:
            for phase, phase_wall in prof_sched.last_phase_wall.items():
                self._tracer.emit(
                    sp.SCHED_PHASE, now, phase=phase, wall_s=phase_wall
                )
        if self._explain is not None:
            # scheduling_busy serializes invocations, so exactly one
            # schedule context is pending until its plan commits.
            self._pending_explain = (
                now, len(snapshot), len(buffer), busy_until,
                self._explain_sched.last_stats
                if self._explain_sched is not None else None,
            )
        self._push(now + overhead, _COMMIT, result.decisions)

    def _commit(self, now: float, decisions) -> None:
        """Apply one plan: reject infeasible queries and dispatch the
        plan's EDF prefix while some model is still idle. Queries
        beyond that stay buffered, so later arrivals can reshape
        their subsets (the paper's wait-for-idling-models rule)."""
        config = self._config
        records = self._records
        explain = self._explain
        trace = self._trace
        self._scheduling_busy = False
        if trace:
            self._tracer.emit(sp.COMMIT, now, decisions=len(decisions))
        ctx = None
        if explain is not None:
            ctx = self._pending_explain
            self._pending_explain = None
        for di, decision in enumerate(decisions):
            record = records[decision.query_id]
            mask = decision.mask
            fallback = False
            if mask == 0 and not config.allow_rejection:
                # Forced processing: fall back to the fastest model.
                mask = self._fastest_mask
                fallback = True
            if mask == 0:
                # Deadlines only get closer; infeasible stays so.
                record.rejected = True
                if explain is not None:
                    explain.add(self._explain_record(
                        record, ctx, di, now, "reject", 0, None,
                    ))
                if trace:
                    self._tracer.emit(
                        sp.REJECT, now, decision.query_id,
                        reason="infeasible",
                    )
                if self.outcomes is not None:
                    self.outcomes.append((now, True, False))
                continue
            if not self._any_idle(now):
                self._buffer.append(decision.query_id)
                if explain is not None:
                    explain.add(self._explain_record(
                        record, ctx, di, now, "requeue", mask, None,
                    ))
                if trace:
                    self._tracer.emit(
                        sp.REQUEUE, now, decision.query_id,
                        depth=len(self._buffer),
                    )
                continue
            if explain is not None:
                explain.add(self._explain_record(
                    record, ctx, di, now,
                    "fallback" if fallback else "dispatch", mask,
                    self._estimate_completion(mask, now),
                ))
            self._dispatch(record, mask, now)

    def _dispatch_immediate(self, now: float, qid: int) -> None:
        record = self._records[qid]
        mask = self._policy.mask_for(record.sample_index)
        explain = self._explain
        if self._config.allow_rejection:
            estimate = self._estimate_completion(mask, now)
            if estimate > record.deadline + 1e-12:
                record.rejected = True
                if explain is not None:
                    explain.add(self._explain_record(
                        record, None, 0, now, "reject", mask, estimate,
                    ))
                if self._trace:
                    self._tracer.emit(
                        sp.REJECT, now, qid, reason="estimate",
                    )
                if self.outcomes is not None:
                    self.outcomes.append((now, True, False))
                return
        if explain is not None:
            explain.add(self._explain_record(
                record, None, 0, now, "immediate", mask,
                self._estimate_completion(mask, now),
            ))
        self._dispatch(record, mask, now)
