"""Per-query latency attribution, critical paths, and run diffing.

The span stream (``repro.obs.spans``) records *what happened* to every
query; this module answers *where the time went*. A
:class:`LatencyAttributor` replays a span stream — live from a
:class:`~repro.obs.tracer.RecordingTracer` or offline from an exported
JSONL dump — and decomposes each completed query's end-to-end latency
into an exact partition of phases:

``admission``
    Arrival to buffer entry (the policy's entry delay). Zero for
    immediate-mode and fast-path queries, which never buffer.
``buffer``
    Buffer residency: entry to the commit that dispatched the query,
    minus the dispatching round's own overhead. Requeue cycles and
    rounds that planned the query without dispatching it land here.
``sched``
    The modeled scheduling overhead of the round whose commit actually
    dispatched the query (``commit − schedule`` of that round).
``queue``
    Dispatch to first execution start of the *critical* task — time
    spent waiting behind busy workers.
``retry``
    First execution start to final execution start of the critical
    task: failed attempts, retry backoff, and failover re-queueing.
    Zero on fault-free runs.
``exec``
    Final execution start to query completion.
``aggregate``
    Ensemble aggregation after the last task resolves. The simulator
    completes queries at the instant their last task ends, so this is
    identically zero today; the phase is part of the schema so the
    partition survives a future aggregation-cost model.

The phases telescope: their sum reproduces the query's recorded
latency to floating-point rounding (the property test in
``tests/obs/test_profile.py`` bounds the error at 1e-9). Rejected
queries carry **no** phases — they mirror the ``queries.rejected``
audit instead of polluting the latency distributions.

The *critical task* is the one whose resolution completed the query
(the last ``task_done``/``task_failed`` before ``complete`` in stream
order); :meth:`LatencyAttributor.critical_chain` walks the critical
worker's timeline to name the tasks the query was actually blocked
behind. Aggregates land in t-digest-backed
:class:`~repro.obs.metrics.StreamingHistogram` per phase, and
:meth:`LatencyAttributor.blame` ranks the worst offenders for the
blame report.

:func:`diff_profiles` compares two runs' profile artifacts and flags
phase-level regressions: simulated-time quantities are deterministic
(same seed ⇒ bit-identical, so tight thresholds stay quiet on a
rerun), while real wall-clock quantities get noise-floored thresholds
(ratio *and* absolute floor) so machine jitter does not page anyone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.obs import spans as sp
from repro.obs.metrics import StreamingHistogram
from repro.obs.spans import Span

__all__ = [
    "PHASES",
    "ARTIFACT_SCHEMA",
    "QueryAttribution",
    "BlockingTask",
    "LatencyAttributor",
    "write_profile_json",
    "read_profile_json",
    "PhaseRegression",
    "ProfileDiff",
    "diff_profiles",
]

#: Phase names, in lifecycle order. Every completed query's attribution
#: has exactly these keys and they sum to its end-to-end latency.
PHASES = (
    "admission", "buffer", "sched", "queue", "retry", "exec", "aggregate",
)

ARTIFACT_SCHEMA = "repro.profile/1"


@dataclass
class QueryAttribution:
    """Where one completed query's latency went.

    Attributes:
        query_id: The query.
        arrival: Absolute arrival time (simulated seconds).
        latency: End-to-end latency as recorded on the ``complete``
            span (the ground truth the phases must sum to).
        slack: Deadline slack at completion (negative = missed).
        phases: ``{phase: seconds}`` over :data:`PHASES` — an exact
            partition of ``latency``.
        critical_model: Base model whose task resolution completed the
            query.
        critical_worker: Worker that ran the critical task's final
            attempt.
        attempts: Execution attempts of the critical task (1 = no
            retries on the critical path).
        retries: Retry spans across *all* of the query's tasks.
        degraded: True when the query was answered from a partial
            subset after permanent task failures.
        fast_path: True when the idle-system shortcut served it.
        plan_time: When the dispatching commit planned the query.
        first_start: First execution start of the critical task.
        final_start: Final (completing) execution start of the
            critical task.
    """

    query_id: int
    arrival: float
    latency: float
    slack: float
    phases: Dict[str, float]
    critical_model: int = -1
    critical_worker: int = -1
    attempts: int = 1
    retries: int = 0
    degraded: bool = False
    fast_path: bool = False
    plan_time: float = 0.0
    first_start: float = 0.0
    final_start: float = 0.0

    @property
    def dominant_phase(self) -> str:
        """The phase that consumed the most time."""
        return max(PHASES, key=lambda p: self.phases.get(p, 0.0))

    def residual(self) -> float:
        """``sum(phases) - latency`` — zero up to float rounding."""
        return sum(self.phases[p] for p in PHASES) - self.latency


@dataclass
class BlockingTask:
    """One task the critical path waited behind on its worker."""

    query_id: int
    model: int
    worker: int
    start: float
    finish: float


class _QueryState:
    """Accumulating per-query view of the stream (internal)."""

    __slots__ = (
        "arrival", "enter", "plan_time", "sched_overhead",
        "dispatches", "last_task_model", "retries", "degraded",
        "fast_path",
    )

    def __init__(self):
        self.arrival: Optional[float] = None
        self.enter: Optional[float] = None
        self.plan_time: Optional[float] = None
        self.sched_overhead = 0.0
        # model -> [(start, finish, worker), ...] in dispatch order.
        self.dispatches: Dict[int, List[Tuple[float, float, int]]] = {}
        self.last_task_model = -1
        self.retries = 0
        self.degraded = False
        self.fast_path = False


class LatencyAttributor:
    """Replays a span stream into per-query latency attributions.

    Args:
        compression: t-digest compression for the per-phase and latency
            histograms (see :class:`~repro.obs.digest.QuantileDigest`).

    Feed it complete streams via :meth:`attribute` (or the
    :meth:`from_tracer` / :meth:`from_jsonl` constructors). Completed
    queries land in :attr:`queries`; rejected query ids in
    :attr:`rejected` with no phases, mirroring the server's
    ``queries.rejected`` audit.
    """

    def __init__(self, compression: int = 128):
        self.queries: Dict[int, QueryAttribution] = {}
        self.rejected: List[int] = []
        self._compression = compression
        self._phase_hist: Optional[Dict[str, StreamingHistogram]] = None
        self._latency_hist: Optional[StreamingHistogram] = None
        # Attributions not yet in the histograms, in _finalize order.
        self._unbinned: List[QueryAttribution] = []
        #: Real wall-clock totals of the DP step phases, summed from
        #: ``sched_phase`` spans (empty for unprofiled streams).
        self.sched_phase_wall: Dict[str, float] = {}
        #: Total real scheduler wall-clock from ``schedule`` spans.
        self.sched_wall = 0.0
        # worker -> [(start, finish, query_id, model), ...] stream order.
        self._worker_timeline: Dict[
            int, List[Tuple[float, float, int, int]]
        ] = {}
        self._states: Dict[int, _QueryState] = {}
        # Most recent completed scheduling round: (decided_at, committed_at).
        self._pending_round: Optional[float] = None
        self._last_round: Optional[Tuple[float, float]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_tracer(cls, tracer, compression: int = 128) -> "LatencyAttributor":
        """Attribute a live :class:`RecordingTracer`'s span stream
        (requires ``keep_spans=True``, the tracer default)."""
        spans = getattr(tracer, "spans", None)
        if not spans:
            raise ValueError(
                "tracer holds no spans — construct it with keep_spans=True "
                "and run the server before attributing"
            )
        attributor = cls(compression)
        attributor.attribute(spans)
        return attributor

    @classmethod
    def from_jsonl(
        cls, path: Union[str, Path], compression: int = 128
    ) -> "LatencyAttributor":
        """Attribute an exported JSONL span dump (offline path)."""
        from repro.obs.export import read_spans_jsonl

        attributor = cls(compression)
        attributor.attribute(read_spans_jsonl(path))
        return attributor

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------

    def attribute(self, spans: Iterable[Span]) -> None:
        """Fold one complete span stream (in emission order) into the
        attributor. One pass, O(spans)."""
        for span in spans:
            kind = span.kind
            if kind == sp.ARRIVAL:
                self._state(span.query_id).arrival = span.time
            elif kind == sp.ENTER_BUFFER:
                self._state(span.query_id).enter = span.time
            elif kind == sp.FAST_PATH:
                self._state(span.query_id).fast_path = True
            elif kind == sp.SCHEDULE:
                self._pending_round = span.time
                self.sched_wall += float(span.attrs.get("wall_s", 0.0))
            elif kind == sp.COMMIT:
                # scheduling_busy serializes rounds, so the open round
                # is always the one this commit closes.
                if self._pending_round is not None:
                    self._last_round = (self._pending_round, span.time)
                    self._pending_round = None
            elif kind == sp.PLAN:
                state = self._state(span.query_id)
                state.plan_time = span.time
                round_ = self._last_round
                # The dispatching round's commit happens at plan time;
                # fast-path/immediate dispatches match no round.
                if round_ is not None and round_[1] == span.time:
                    state.sched_overhead = round_[1] - round_[0]
            elif kind == sp.DISPATCH:
                state = self._state(span.query_id)
                model = int(span.attrs["model"])
                worker = int(span.attrs["worker"])
                start = float(span.attrs["start"])
                finish = float(span.attrs["finish"])
                state.dispatches.setdefault(model, []).append(
                    (start, finish, worker)
                )
                self._worker_timeline.setdefault(worker, []).append(
                    (start, finish, span.query_id, model)
                )
            elif kind in (sp.TASK_DONE, sp.TASK_FAILED):
                self._state(span.query_id).last_task_model = int(
                    span.attrs["model"]
                )
            elif kind == sp.RETRY:
                self._state(span.query_id).retries += 1
            elif kind == sp.DEGRADED:
                self._state(span.query_id).degraded = True
            elif kind == sp.COMPLETE:
                self._finalize(span)
            elif kind == sp.REJECT:
                # No latency phases for rejected queries — they never
                # completed, so there is no latency to attribute.
                self.rejected.append(span.query_id)
                self._states.pop(span.query_id, None)
            elif kind == sp.SCHED_PHASE:
                phase = str(span.attrs.get("phase", "?"))
                self.sched_phase_wall[phase] = (
                    self.sched_phase_wall.get(phase, 0.0)
                    + float(span.attrs.get("wall_s", 0.0))
                )

    def _state(self, query_id: int) -> _QueryState:
        state = self._states.get(query_id)
        if state is None:
            state = self._states[query_id] = _QueryState()
        return state

    def _finalize(self, span: Span) -> None:
        """Turn one ``complete`` span plus its accumulated state into
        an exact phase partition of the recorded latency."""
        state = self._states.pop(span.query_id, _QueryState())
        completion = span.time
        latency = float(span.attrs.get("latency", 0.0))
        arrival = (
            state.arrival if state.arrival is not None
            else completion - latency
        )
        enter = state.enter if state.enter is not None else arrival
        plan = state.plan_time if state.plan_time is not None else enter
        sched = state.sched_overhead if state.enter is not None else 0.0
        # Clamp: a query is always in the snapshot of the round that
        # dispatches it, so plan - enter >= sched; the min() only
        # guards degenerate hand-built streams.
        sched = min(sched, plan - enter)

        critical = state.last_task_model
        attempts = state.dispatches.get(critical, [])
        if attempts:
            first_start = attempts[0][0]
            final_start, _, critical_worker = attempts[-1]
        else:  # degenerate stream (no dispatch recorded): all exec
            first_start = final_start = plan
            critical_worker = -1

        phases = {
            "admission": enter - arrival,
            "buffer": (plan - enter) - sched,
            "sched": sched,
            "queue": first_start - plan,
            "retry": final_start - first_start,
            "exec": completion - final_start,
            # Completion fires at the last task resolution, so ensemble
            # aggregation is instantaneous in this simulator.
            "aggregate": 0.0,
        }
        attribution = QueryAttribution(
            query_id=span.query_id,
            arrival=arrival,
            latency=latency,
            slack=float(span.attrs.get("slack", 0.0)),
            phases=phases,
            critical_model=critical,
            critical_worker=critical_worker,
            attempts=max(len(attempts), 1),
            retries=state.retries,
            degraded=state.degraded or bool(span.attrs.get("degraded")),
            fast_path=state.fast_path,
            plan_time=plan,
            first_start=first_start,
            final_start=final_start,
        )
        self.queries[span.query_id] = attribution
        self._unbinned.append(attribution)

    @property
    def phase_hist(self) -> Dict[str, StreamingHistogram]:
        """Per-phase t-digest histograms of the completed queries."""
        self._bin()
        return self._phase_hist

    @property
    def latency_hist(self) -> StreamingHistogram:
        """The completed queries' end-to-end latency histogram."""
        self._bin()
        return self._latency_hist

    def _bin(self) -> None:
        """Fill the histograms with the attributions made since the last
        read, in the order they were made: they are built only when
        read, so a bundle's blame never pays for them."""
        if self._latency_hist is None:
            compression = self._compression
            self._phase_hist = {
                phase: StreamingHistogram(f"phase.{phase}_s", compression)
                for phase in PHASES
            }
            self._latency_hist = StreamingHistogram(
                "query.latency_s", compression
            )
        for attribution in self._unbinned:
            for phase, seconds in attribution.phases.items():
                self._phase_hist[phase].add(seconds)
            self._latency_hist.add(attribution.latency)
        self._unbinned = []

    # ------------------------------------------------------------------
    # Critical path & blame
    # ------------------------------------------------------------------

    def critical_chain(self, query_id: int) -> List[BlockingTask]:
        """The tasks the query's critical path actually waited behind:
        executions on the critical worker that overlapped the interval
        from the query's dispatch to its critical task's final start,
        in execution order."""
        attribution = self.queries[query_id]
        chain: List[BlockingTask] = []
        timeline = self._worker_timeline.get(attribution.critical_worker, [])
        for start, finish, qid, model in timeline:
            if qid == query_id and model == attribution.critical_model:
                continue
            if finish > attribution.plan_time + 1e-12 and (
                start < attribution.final_start - 1e-12
            ):
                chain.append(BlockingTask(qid, model, attribution.critical_worker,
                                          start, finish))
        chain.sort(key=lambda task: task.start)
        return chain

    def blame(
        self, k: int = 5, breaching_only: bool = False
    ) -> List[QueryAttribution]:
        """The top-``k`` latest queries (by latency, descending).
        ``breaching_only`` restricts to deadline misses (slack < 0)."""
        pool = [
            a for a in self.queries.values()
            if not breaching_only or a.slack < 0.0
        ]
        pool.sort(key=lambda a: (-a.latency, a.query_id))
        return pool[:k]

    # ------------------------------------------------------------------
    # Artifact
    # ------------------------------------------------------------------

    def phase_summary(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {count, total, mean, p50, p95, p99, max}}``."""
        out: Dict[str, Dict[str, float]] = {}
        for phase in PHASES:
            hist = self.phase_hist[phase]
            stats = hist.summary()
            stats["total"] = hist.total if hist.count else 0.0
            stats.pop("min", None)
            out[phase] = stats
        return out

    def to_artifact(self) -> Dict[str, object]:
        """JSON-able profile artifact — the unit ``diff_profiles``
        compares. Simulated-time quantities are deterministic per seed;
        the ``*_wall_s`` entries are real wall-clock."""
        completed = list(self.queries.values())
        latency = self.latency_hist.summary()
        latency["total"] = self.latency_hist.total if completed else 0.0
        latency.pop("min", None)
        return {
            "schema": ARTIFACT_SCHEMA,
            "queries": {
                "attributed": len(completed),
                "rejected": len(self.rejected),
                "degraded": sum(a.degraded for a in completed),
                "fast_path": sum(a.fast_path for a in completed),
                "retried": sum(a.retries > 0 for a in completed),
                "breaching": sum(a.slack < 0.0 for a in completed),
            },
            "phases": self.phase_summary(),
            "latency": latency,
            "sched_wall_s": self.sched_wall,
            "sched_phase_wall_s": dict(sorted(self.sched_phase_wall.items())),
        }


def write_profile_json(
    artifact: Dict[str, object], path: Union[str, Path]
) -> Path:
    """Write a profile artifact; parent directories are created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return path


def read_profile_json(path: Union[str, Path]) -> Dict[str, object]:
    """Load a profile artifact, validating its schema tag."""
    artifact = json.loads(Path(path).read_text())
    schema = artifact.get("schema")
    if schema != ARTIFACT_SCHEMA:
        raise ValueError(
            f"{path}: expected a {ARTIFACT_SCHEMA!r} artifact, "
            f"got schema={schema!r}"
        )
    return artifact


# ----------------------------------------------------------------------
# Run diffing
# ----------------------------------------------------------------------


@dataclass
class PhaseRegression:
    """One flagged metric movement between two profile artifacts."""

    metric: str
    base: float
    new: float
    kind: str  # "wall" | "sim"

    @property
    def ratio(self) -> float:
        if self.base == 0.0:
            return float("inf") if self.new else 1.0
        return self.new / self.base

    def describe(self) -> str:
        return (
            f"{self.metric}: {self.base:.6g} -> {self.new:.6g} "
            f"({self.ratio:.2f}x, {self.kind})"
        )


@dataclass
class ProfileDiff:
    """Outcome of comparing two profile artifacts.

    ``regressions`` are movements past the thresholds in the *worse*
    direction; ``improvements`` past them in the better one. ``ok`` is
    the CI gate: no regressions.
    """

    regressions: List[PhaseRegression] = field(default_factory=list)
    improvements: List[PhaseRegression] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = []
        if self.regressions:
            lines.append(f"REGRESSIONS ({len(self.regressions)}):")
            lines.extend("  " + r.describe() for r in self.regressions)
        if self.improvements:
            lines.append(f"improvements ({len(self.improvements)}):")
            lines.extend("  " + r.describe() for r in self.improvements)
        if not lines:
            lines.append("no phase-level differences past thresholds")
        return "\n".join(lines)


def _sim_metrics(artifact: Dict[str, object]) -> Dict[str, float]:
    """Flat simulated-time metric map (deterministic per seed)."""
    out: Dict[str, float] = {}
    for name, value in artifact.get("queries", {}).items():
        out[f"queries.{name}"] = float(value)
    for phase, stats in artifact.get("phases", {}).items():
        for stat in ("total", "p95"):
            value = stats.get(stat)
            if value is not None and value == value:  # skip NaN
                out[f"phase.{phase}.{stat}"] = float(value)
    latency = artifact.get("latency", {})
    for stat in ("total", "p95", "p99"):
        value = latency.get(stat)
        if value is not None and value == value:
            out[f"latency.{stat}"] = float(value)
    return out


def _wall_metrics(artifact: Dict[str, object]) -> Dict[str, float]:
    """Flat real-wall-clock metric map (noisy across machines)."""
    out = {"sched.wall_s": float(artifact.get("sched_wall_s", 0.0))}
    for phase, value in artifact.get("sched_phase_wall_s", {}).items():
        out[f"sched.phase_wall_s.{phase}"] = float(value)
    return out


#: Counters where a *decrease* is the bad direction.
_GOOD_UP = ("queries.attributed", "queries.fast_path")


def diff_profiles(
    base: Dict[str, object],
    new: Dict[str, object],
    *,
    sim_rel: float = 0.05,
    sim_floor: float = 1e-9,
    wall_ratio: float = 1.6,
    wall_floor: float = 1e-3,
) -> ProfileDiff:
    """Compare two profile artifacts and flag phase-level regressions.

    Simulated-time metrics (phase totals/percentiles, query counters)
    are deterministic per seed, so a same-seed rerun diffs clean; a
    movement past ``sim_rel`` (plus the ``sim_floor`` absolute guard
    against 1e-12-scale noise) is flagged. Real wall-clock metrics (the
    DP step-phase timers) are machine-noisy, so a regression needs
    *both* a ``wall_ratio`` blow-up and a ``wall_floor`` absolute
    increase — sub-millisecond jitter on a fast phase never pages.
    """
    diff = ProfileDiff()

    base_sim, new_sim = _sim_metrics(base), _sim_metrics(new)
    for metric in sorted(set(base_sim) | set(new_sim)):
        b = base_sim.get(metric, 0.0)
        n = new_sim.get(metric, 0.0)
        delta = n - b
        if abs(delta) <= max(sim_rel * abs(b), sim_floor):
            continue
        worse = delta < 0 if metric in _GOOD_UP else delta > 0
        entry = PhaseRegression(metric, b, n, "sim")
        (diff.regressions if worse else diff.improvements).append(entry)

    base_wall, new_wall = _wall_metrics(base), _wall_metrics(new)
    for metric in sorted(set(base_wall) | set(new_wall)):
        b = base_wall.get(metric, 0.0)
        n = new_wall.get(metric, 0.0)
        if n > b * wall_ratio and n - b > wall_floor:
            diff.regressions.append(PhaseRegression(metric, b, n, "wall"))
        elif b > n * wall_ratio and b - n > wall_floor:
            diff.improvements.append(PhaseRegression(metric, b, n, "wall"))
    return diff
