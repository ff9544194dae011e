"""Structured query-lifecycle spans emitted by the serving simulator.

A span is one timestamped point (or interval, for task executions) in a
query's journey through the server:

    arrival -> enter_buffer -> schedule -> commit -> plan/dispatch
            -> task_done -> complete | reject        (buffered policies)
    arrival -> dispatch -> task_done -> complete | reject   (immediate)

Under an active :class:`~repro.faults.plan.FaultPlan` a task may also
go ``dispatch -> task_failed -> retry -> dispatch -> ...``, workers
emit ``worker_down``/``worker_up`` around crash windows, and a query
whose tasks partially failed ends in ``degraded_answer`` +
``complete`` instead of being dropped.

Span times are *simulated* seconds. Wall-clock measurements (e.g. real
scheduler latency) travel in span attributes, never in ``time``. The
kind constants double as the vocabulary of the exporters and of the
span-sequence assertions in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

# --- span kinds (query lifecycle) ----------------------------------------
ARRIVAL = "arrival"            # query entered the system
ENTER_BUFFER = "enter_buffer"  # query joined the scheduling buffer
SCHEDULE = "schedule"          # scheduler invoked over a buffer snapshot
COMMIT = "commit"              # a scheduler plan committed (post-overhead)
PLAN = "plan"                  # subset chosen for one query (size attr)
DISPATCH = "dispatch"          # a task starts executing on a worker
TASK_DONE = "task_done"        # one model task finished
COMPLETE = "complete"          # all of a query's tasks finished
REJECT = "reject"              # query will never be served
REQUEUE = "requeue"            # planned query returned to the buffer
FAST_PATH = "fast_path"        # idle-system shortcut (Exp-5) taken

# --- fault lifecycle (repro.faults) --------------------------------------
TASK_FAILED = "task_failed"    # one execution failed (reason attr:
                               # "fault" | "timeout" | "crash")
RETRY = "retry"                # failed/revoked task re-dispatched
WORKER_DOWN = "worker_down"    # worker entered a downtime window
WORKER_UP = "worker_up"        # worker recovered
DEGRADED = "degraded_answer"   # query answered from a partial subset

# --- SLO / explainability (repro.obs.slo, repro.obs.explain) -------------
SLO_BREACH = "slo_breach"      # alert-window burn rate crossed the
                               # breach threshold (overload episode opens)
SLO_RECOVERED = "slo_recovered"  # burn rate fell back under the
                               # recovery threshold (episode closes)
DECISION = "decision"          # one explained scheduling decision
                               # (mirrors a DecisionRecord)

# --- fleet front-end (repro.fleet) ---------------------------------------
ROUTE = "route"                # fleet router placed a query on a shard
                               # (shard, backlog, policy attrs; redirected
                               # marks an admission-control re-route)
SHED = "shed"                  # fleet admission control dropped a query
                               # before any shard buffered it (always
                               # followed by a reject span, reason="shed")

# --- control plane (repro.control) ---------------------------------------
SCALE_UP = "scale_up"          # controller added one replica set to a shard
                               # (shard, level, burn attrs; capacity serves
                               # after the configured warm-up)
SCALE_DOWN = "scale_down"      # controller retired the most recently added
                               # replica set (never below baseline)
DEGRADE_MODE = "degrade"       # controller flipped the fleet into
                               # cheap-subset mode (plans clamped to
                               # cheap_mask while a breach episode is open)
RESTORE = "restore"            # controller restored full-quality serving
                               # after the episode closed
ADMISSION_CHANGE = "admission_change"  # controller tightened or relaxed the
                               # fleet admission queue_limit
                               # (queue_limit, tightened attrs)

# --- learned scheduler (repro.scheduling.policy_fast) --------------------
SCHED_FALLBACK = "sched_fallback"  # one learned-scheduler invocation's
                               # gate verdict (size_routed and fallback
                               # bools + predicted_regret attrs); emitted
                               # per schedule() call only when the
                               # policy's scheduler is a LearnedScheduler

# --- profiling (repro.obs.profile) ---------------------------------------
SCHED_PHASE = "sched_phase"    # real wall-clock of one internal scheduler
                               # step phase for one invocation (phase,
                               # wall_s attrs); emitted only when the
                               # tracer's profile flag is on
QUEUE_WAIT = "queue_wait"      # one task waited behind a busy worker
                               # before starting (wait_s attr); emitted
                               # only when the tracer's profile flag is on

# --- live telemetry (repro.obs.live) -------------------------------------
SNAPSHOT = "snapshot"          # one telemetry snapshot boundary flushed
                               # (seq plus arrived/completed/rejected
                               # window deltas); emitted only when the
                               # tracer carries a LiveTelemetry
ANOMALY = "anomaly"            # the live watchdog flagged the current
                               # window against its baseline (signal,
                               # window/baseline stats attrs)
INCIDENT = "incident"          # the flight recorder froze its ring into
                               # an incident bundle (trigger, seq,
                               # spans attrs)

KINDS = (
    ARRIVAL, ENTER_BUFFER, SCHEDULE, COMMIT, PLAN, DISPATCH,
    TASK_DONE, COMPLETE, REJECT, REQUEUE, FAST_PATH,
    TASK_FAILED, RETRY, WORKER_DOWN, WORKER_UP, DEGRADED,
    SLO_BREACH, SLO_RECOVERED, DECISION,
    ROUTE, SHED,
    SCALE_UP, SCALE_DOWN, DEGRADE_MODE, RESTORE, ADMISSION_CHANGE,
    SCHED_FALLBACK,
    SCHED_PHASE, QUEUE_WAIT,
    SNAPSHOT, ANOMALY, INCIDENT,
)


@dataclass
class Span:
    """One lifecycle event.

    Attributes:
        kind: One of the module's kind constants.
        time: Simulated time (seconds) the event happened.
        query_id: Query the span belongs to; ``-1`` for run-level spans
            (e.g. ``schedule``/``commit``, which cover a whole batch).
        attrs: Kind-specific payload (e.g. ``worker``/``start``/``finish``
            on ``dispatch``, ``wall_s`` on ``schedule``, ``slack`` on
            ``complete``).
    """

    kind: str
    time: float
    query_id: int = -1
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-friendly representation (for the JSONL exporter)."""
        out: Dict[str, object] = {"kind": self.kind, "time": self.time}
        if self.query_id >= 0:
            out["query_id"] = self.query_id
        out.update(self.attrs)
        return out


def spans_of_kind(spans: Iterable[Span], kind: str) -> List[Span]:
    """Filter helper used by tests and exporters."""
    return [span for span in spans if span.kind == kind]


def span_sequence(spans: Iterable[Span], query_id: int) -> List[str]:
    """The ordered kind sequence one query went through (test helper)."""
    return [
        span.kind for span in spans
        if span.query_id == query_id and span.kind != SCHEDULE
    ]
