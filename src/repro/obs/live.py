"""Live telemetry plane: streaming snapshots, flight recorder, incidents.

Everything observability built before this module is post-hoc: spans,
digests, SLO episodes and profiles are only materialized after
``run()`` returns. :class:`LiveTelemetry` turns the same span stream
into an *operable* surface while the run is still going:

* **Snapshots** — at a configurable simulated-time cadence the stream
  is cut into windows; each boundary emits a
  :class:`TelemetrySnapshot` holding delta-encoded counters (what
  happened *this* window), cumulative totals, last gauge values and
  full mergeable digest checkpoints
  (:meth:`~repro.obs.digest.QuantileDigest.to_dict` state, so shard
  snapshots roll up into fleet snapshots by digest merge — see
  :meth:`TelemetrySnapshot.rollup`).
* **Flight recorder** — a bounded ring of the most recent spans,
  always on at O(1) per span. Trigger spans (``slo_breach``, control
  ``scale_up``/``degrade``, ``worker_down``) and the anomaly watchdog
  freeze the ring into an **incident bundle**: the breach-window span
  slice, the control-log slice, recent snapshots, and the top-K
  offender queries via :meth:`~repro.obs.profile.LatencyAttributor.blame`.
* **Anomaly watchdog** — per snapshot window, compares the window's
  latency digest and miss rate against a baseline accumulated from the
  prior clean windows; a window whose p95 latency or miss rate blows
  past its factor fires an ``anomaly`` span and the recorder.

Determinism contract: every quantity in a bundle is simulated-time or
derived from the deterministic span stream, so a fixed (trace, seed)
freezes byte-identical bundles — except the real-wall-clock ``wall_s``
attributes riding on ``schedule`` spans. :func:`incident_fingerprint`
canonicalizes a bundle with those scrubbed; the test suite and the
overhead benchmark compare fingerprints, not raw bytes.

Attachment: pass a :class:`LiveTelemetry` to
``RecordingTracer(live=...)``. ``RecordingTracer.emit`` is the plane's
one span hook. A span first flushes every snapshot boundary it passes,
so a window, its snapshot and the bundles frozen at it end at the
boundary; then the flight recorder stores it; then the tracer's fold
chain hands outcome kinds to the watchdog and trigger kinds to the
recorder. When ``live`` is ``None`` (the default) the tracer path is
unchanged and a disabled run stays bit-identical to pre-live behaviour
(proved by ``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.digest import QuantileDigest
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    StreamingHistogram,
)
from repro.obs.spans import (
    ANOMALY,
    DEGRADE_MODE,
    INCIDENT,
    SCALE_UP,
    SLO_BREACH,
    SNAPSHOT,
    WORKER_DOWN,
    Span,
)

#: Schema tag stamped into every incident bundle (the
#: ``repro.profile/1`` pattern); bump on breaking layout changes.
INCIDENT_SCHEMA = "repro.incident/1"

#: Trigger span kinds that freeze the flight recorder: the default set
#: and the only kinds allowed, because ``RecordingTracer``'s fold chain
#: hooks exactly these (``anomaly`` fires from the watchdog at a
#: boundary, not from a span).
DEFAULT_TRIGGERS = (SLO_BREACH, SCALE_UP, DEGRADE_MODE, WORKER_DOWN, ANOMALY)

#: Kinds the live plane emits about itself — kept in the recorder's
#: rows (a fleet's totals count them) but never part of the ring or fed
#: to the watchdog.
META_KINDS = frozenset((SNAPSHOT, ANOMALY, INCIDENT))


@dataclass(frozen=True)
class LiveConfig:
    """Knobs of the live telemetry plane.

    Attributes:
        cadence: Simulated seconds between snapshot boundaries.
        ring_capacity: Spans the flight recorder retains.
        triggers: Span kinds that freeze the ring into a bundle, a
            subset of :data:`DEFAULT_TRIGGERS` (``anomaly`` covers the
            watchdog; drop a kind to disarm it).
        watchdog: Master switch for the anomaly watchdog.
        baseline_windows: Clean windows the watchdog accumulates before
            it arms (warm-up).
        anomaly_min_events: Resolved queries a window needs before the
            watchdog may judge it.
        anomaly_latency_factor: Window p95 latency vs baseline p95
            blow-up that flags a latency anomaly.
        anomaly_miss_factor: Window miss rate vs baseline miss rate
            blow-up that flags a burn anomaly.
        anomaly_miss_floor: Absolute window miss rate below which the
            burn signal never fires (a 3x blow-up of nearly zero is
            still nearly zero).
        incident_cooldown: Simulated seconds between frozen bundles;
            triggers inside the cooldown are counted as suppressed.
        max_incidents: Hard cap on bundles per run.
        max_snapshots: Snapshots retained in memory (oldest dropped).
        snapshots_per_incident: Most recent snapshots copied into each
            bundle.
        top_k: Offender queries blamed per bundle.
        compression: t-digest compression of the watchdog's window and
            baseline latency sketches.
    """

    cadence: float = 1.0
    ring_capacity: int = 2048
    triggers: Tuple[str, ...] = DEFAULT_TRIGGERS
    watchdog: bool = True
    baseline_windows: int = 5
    anomaly_min_events: int = 20
    anomaly_latency_factor: float = 2.5
    anomaly_miss_factor: float = 3.0
    anomaly_miss_floor: float = 0.2
    incident_cooldown: float = 10.0
    max_incidents: int = 8
    max_snapshots: int = 4096
    snapshots_per_incident: int = 3
    top_k: int = 5
    compression: int = 64

    def __post_init__(self):
        if self.cadence <= 0:
            raise ValueError(f"cadence must be > 0, got {self.cadence}")
        if self.ring_capacity < 1:
            raise ValueError(
                f"ring_capacity must be >= 1, got {self.ring_capacity}"
            )
        if self.anomaly_latency_factor <= 1.0 or self.anomaly_miss_factor <= 1.0:
            raise ValueError("anomaly factors must exceed 1.0")
        unknown = set(self.triggers) - set(DEFAULT_TRIGGERS)
        if unknown:
            raise ValueError(
                f"unknown trigger span kinds: {sorted(unknown)} "
                f"(triggers are a subset of {list(DEFAULT_TRIGGERS)})"
            )


@dataclass
class TelemetrySnapshot:
    """One cadence window of a run, delta-encoded and mergeable.

    Attributes:
        seq: Snapshot index (0-based, per source).
        time: Window end boundary (simulated seconds).
        source: Producer tag (``server``, ``shard3``, ``fleet``).
        counters: Counter deltas over this window (zero deltas
            omitted).
        totals: Cumulative counter values at the boundary.
        gauges: Last sampled value of each gauge at the boundary.
        digests: Cumulative :class:`QuantileDigest` checkpoints per
            histogram — mergeable across sources, so fleet rollups
            keep accurate quantiles.
    """

    seq: int
    time: float
    source: str = "server"
    counters: Dict[str, float] = field(default_factory=dict)
    totals: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    digests: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation with deterministic key order."""
        return {
            "seq": self.seq,
            "time": self.time,
            "source": self.source,
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "totals": {k: self.totals[k] for k in sorted(self.totals)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "digests": {k: self.digests[k] for k in sorted(self.digests)},
        }

    @classmethod
    def from_dict(cls, state: Dict[str, object]) -> "TelemetrySnapshot":
        """Rebuild a snapshot serialized by :meth:`to_dict`."""
        return cls(
            seq=int(state["seq"]),
            time=float(state["time"]),
            source=str(state.get("source", "server")),
            counters=dict(state.get("counters", {})),
            totals=dict(state.get("totals", {})),
            gauges=dict(state.get("gauges", {})),
            digests=dict(state.get("digests", {})),
        )

    def quantile(self, name: str, q: float) -> float:
        """Quantile ``q`` of the checkpointed digest ``name``
        (NaN when the histogram is absent or empty)."""
        state = self.digests.get(name)
        if state is None or not state.get("count"):
            return float("nan")
        return QuantileDigest.from_dict(state).quantile(q)

    @classmethod
    def rollup(
        cls, snapshots: Sequence["TelemetrySnapshot"], source: str = "fleet"
    ) -> "TelemetrySnapshot":
        """Merge same-boundary snapshots from several sources into one.

        Counters/totals/gauges sum (gauges are extensive here — buffer
        depth, replica level — so the fleet value is the shard sum);
        digest checkpoints merge losslessly at the centroid level.
        """
        if not snapshots:
            raise ValueError("rollup needs at least one snapshot")
        counters: Dict[str, float] = {}
        totals: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        parts: Dict[str, List[QuantileDigest]] = {}
        for snap in snapshots:
            for name, value in snap.counters.items():
                counters[name] = counters.get(name, 0.0) + value
            for name, value in snap.totals.items():
                totals[name] = totals.get(name, 0.0) + value
            for name, value in snap.gauges.items():
                gauges[name] = gauges.get(name, 0.0) + value
            for name, state in snap.digests.items():
                parts.setdefault(name, []).append(
                    QuantileDigest.from_dict(state)
                )
        digests = {}
        for name, (first, *rest) in parts.items():
            first.merge(*rest)
            digests[name] = first.to_dict()
        return cls(
            seq=snapshots[0].seq,
            time=max(snap.time for snap in snapshots),
            source=source,
            counters=counters,
            totals=totals,
            gauges=gauges,
            digests=digests,
        )


class AnomalyWatchdog:
    """Window-vs-baseline detector over resolved-query outcomes.

    Each snapshot window accumulates a latency digest plus event/miss
    counts. At the boundary the window is judged against the baseline
    (the digest-merge of all prior *clean* windows): a p95 latency
    blow-up or a miss-rate blow-up past the configured factors flags
    the window. Flagged windows are excluded from the baseline so a
    sustained incident cannot normalize itself away.
    """

    def __init__(self, config: LiveConfig):
        self._config = config
        self.windows_closed = 0
        self.anomalies = 0
        self._win_events = 0
        self._win_misses = 0
        self._win_digest = QuantileDigest(compression=config.compression)
        self._base_events = 0
        self._base_misses = 0
        self._base_digest = QuantileDigest(compression=config.compression)

    @property
    def armed(self) -> bool:
        """True once the warm-up baseline has accumulated."""
        return self.windows_closed >= self._config.baseline_windows

    def ingest(self, missed: bool, latency: Optional[float]) -> None:
        """Fold one resolved query into the current window."""
        self._win_events += 1
        if missed:
            self._win_misses += 1
        if latency is not None:
            self._win_digest.add(latency)

    def close_window(self) -> Optional[Dict[str, float]]:
        """Judge and retire the current window at a snapshot boundary.

        Returns the anomaly attributes when the window is flagged
        (``signal``, window and baseline stats), else ``None``.
        """
        config = self._config
        verdict: Optional[Dict[str, float]] = None
        events = self._win_events
        if self.armed and events >= config.anomaly_min_events:
            miss_rate = self._win_misses / events
            base_rate = (
                self._base_misses / self._base_events
                if self._base_events else 0.0
            )
            if (
                miss_rate >= config.anomaly_miss_floor
                and miss_rate > config.anomaly_miss_factor
                * max(base_rate, 1.0 / max(self._base_events, 1))
            ):
                verdict = {
                    "signal": "miss_rate",
                    "window_miss_rate": miss_rate,
                    "baseline_miss_rate": base_rate,
                    "window_events": float(events),
                }
            elif self._win_digest.count and self._base_digest.count:
                win_p95 = self._win_digest.quantile(0.95)
                base_p95 = self._base_digest.quantile(0.95)
                if base_p95 > 0 and win_p95 > (
                    config.anomaly_latency_factor * base_p95
                ):
                    verdict = {
                        "signal": "latency",
                        "window_p95": win_p95,
                        "baseline_p95": base_p95,
                        "window_events": float(events),
                    }
        if verdict is None:
            # Clean window: fold it into the baseline.
            self._base_events += events
            self._base_misses += self._win_misses
            self._base_digest.merge(self._win_digest)
        else:
            self.anomalies += 1
        self.windows_closed += 1
        self._win_events = 0
        self._win_misses = 0
        self._win_digest = QuantileDigest(compression=config.compression)
        return verdict


class FlightRecorder:
    """Recent spans plus the freeze-to-bundle logic.

    The recorder reads one list of rows, every span in emission order
    (the live plane's own meta spans included); its ring is the last
    ``ring_capacity`` non-meta rows. :meth:`LiveTelemetry.bind` picks
    the list from the tracer's ``keep_spans``:

    * ``keep_spans=False``: the recorder's own list. The tracer appends
      each span as a ``(kind, time, query_id, attrs)`` tuple — the
      attrs dict is shared with the caller, never copied on the hot
      path — and :meth:`trim` cuts the list back at each snapshot
      boundary, keeping the ring plus every row from :attr:`hold` on.
    * ``keep_spans=True`` (:meth:`use_span_list`): the tracer's own
      span list, so the ring costs nothing per span.

    Either way :meth:`spans` yields the same window and :meth:`freeze`
    materializes :class:`Span` objects only when a trigger fires.
    Rows are addressed by absolute index (``base`` counts the rows
    trimmed away), which is how a fleet cuts a shard's stream at a
    merged-stream position.
    """

    def __init__(self, config: LiveConfig):
        self._config = config
        self.rows: List = []
        self.base = 0
        #: Absolute index of the oldest row a holder still needs (the
        #: fleet merge); None lets :meth:`trim` keep just the ring.
        self.hold: Optional[int] = None
        self._span_list: Optional[List[Span]] = None
        self.append = self.rows.append  # hot-path bound method
        #: Kind and time of a row, whichever store holds it.
        self.kind_of = itemgetter(0)
        self.time_of = itemgetter(1)

    def use_span_list(self, spans: List[Span]) -> None:
        """Back the ring by the tracer's own (growing) span list."""
        self._span_list = self.rows = spans
        self.kind_of = attrgetter("kind")
        self.time_of = attrgetter("time")

    def row(self, index: int) -> Tuple[str, float, int, Dict[str, object]]:
        """The row at absolute ``index`` as a plain tuple."""
        row = self.rows[index - self.base]
        if self._span_list is not None:
            return row.kind, row.time, row.query_id, row.attrs
        return row

    def back(self, end: Optional[int] = None):
        """``(index, kind, time)`` of each non-meta row before absolute
        index ``end`` (all rows by default), newest first."""
        rows, kind_of, time_of = self.rows, self.kind_of, self.time_of
        i = len(rows) if end is None else end - self.base
        while i > 0:
            i -= 1
            kind = kind_of(rows[i])
            if kind not in META_KINDS:
                yield i + self.base, kind, time_of(rows[i])

    def spans(self) -> List[Span]:
        """The retained window as :class:`Span` objects (oldest first)."""
        kind_of, cap = self.kind_of, self._config.ring_capacity
        tail = []
        for row in reversed(self.rows):
            if kind_of(row) not in META_KINDS:
                tail.append(row)
                if len(tail) == cap:
                    break
        if self._span_list is not None:
            return [
                Span(s.kind, s.time, s.query_id, dict(s.attrs))
                for s in reversed(tail)
            ]
        return [
            Span(kind, time, qid, dict(attrs))
            for kind, time, qid, attrs in reversed(tail)
        ]

    def trim(self) -> None:
        """Drop rows older than the ring before :attr:`hold` (or the
        end); amortized, so a trim walks at most one ring per two rings
        of rows it drops."""
        if self._span_list is not None:
            return
        rows = self.rows
        limit = len(rows)
        if self.hold is not None:
            limit = min(limit, self.hold - self.base)
        cap = self._config.ring_capacity
        if limit <= 3 * cap:
            return
        i, kept = limit, 0
        while i > 0 and kept < cap:
            i -= 1
            if rows[i][0] not in META_KINDS:
                kept += 1
        del rows[:i]
        self.base += i

    def freeze(
        self,
        trigger_kind: str,
        time: float,
        query_id: int,
        attrs: Dict[str, object],
        *,
        seq: int,
        source: str,
        totals: Dict[str, float],
        snapshots: Sequence[TelemetrySnapshot],
        ring_spans: List[Span],
        control: Optional[List[Dict[str, object]]] = None,
    ) -> Dict[str, object]:
        """Materialize ``ring_spans`` (this ring's :meth:`spans`) into a
        schema-tagged incident bundle with empty ``decisions``."""
        from repro.obs.profile import LatencyAttributor

        window_start = ring_spans[0].time if ring_spans else time
        attributor = LatencyAttributor(
            compression=self._config.compression
        )
        attributor.attribute(ring_spans)
        blame = [
            {
                "query_id": a.query_id,
                "latency": a.latency,
                "slack": a.slack,
                "dominant_phase": a.dominant_phase,
                "phases": {k: a.phases[k] for k in sorted(a.phases)},
                "degraded": bool(a.degraded),
                "retries": a.retries,
            }
            for a in attributor.blame(self._config.top_k)
        ]
        keep = self._config.snapshots_per_incident
        return {
            "schema": INCIDENT_SCHEMA,
            "seq": seq,
            "source": source,
            "trigger": {
                "kind": trigger_kind,
                "time": time,
                "query_id": query_id,
                "attrs": {k: attrs[k] for k in sorted(attrs)},
            },
            "window": {
                "start": window_start,
                "end": time,
                "spans": len(ring_spans),
            },
            "totals": {k: totals[k] for k in sorted(totals)},
            "snapshots": [
                snap.to_dict() for snap in list(snapshots)[-keep:]
            ],
            "blame": blame,
            "control": control if control is not None else [],
            "decisions": {},
            "spans": [span.to_dict() for span in ring_spans],
        }


class LiveTelemetry:
    """The live plane one tracer carries: snapshots + recorder + watchdog.

    Construct, hand to ``RecordingTracer(live=...)``, run. The tracer
    calls :meth:`bind` when attached, which picks the recorder's store
    from its ``keep_spans``. Its ``emit`` is the one span hook: a span
    first flushes any snapshot boundary it passes, is then stored (a
    list append, or nothing when the ring is a view over the tracer's
    span list), and the tracer's fold chain hands ``complete``/
    ``reject`` to the watchdog and trigger kinds to
    :meth:`_maybe_trigger`. :meth:`tick` lets an epoch driver (a
    fleet, at each of its stops) flush boundaries through quiet
    stretches with no spans.

    State is plain attribute reads, so a background thread (the
    ``--serve-metrics`` endpoint) or the live console repainting while
    a worker thread serves can sample :attr:`latest`,
    :attr:`snapshots`, :attr:`incidents` and :attr:`sources` mid-run
    without locks — readers see a consistent recent prefix.
    """

    def __init__(
        self, config: Optional[LiveConfig] = None, source: str = "server"
    ):
        self.config = config if config is not None else LiveConfig()
        self.source = source
        self.snapshots: Deque[TelemetrySnapshot] = deque(
            maxlen=self.config.max_snapshots
        )
        self.incidents: List[Dict[str, object]] = []
        self.suppressed = 0
        self.recorder = FlightRecorder(self.config)
        self.watchdog = (
            AnomalyWatchdog(self.config) if self.config.watchdog else None
        )
        self._tracer = None
        self._metrics: Optional[MetricsRegistry] = None
        self._control_log = None
        self._decisions = None
        self._prev_totals: Dict[str, float] = {}
        self._next_due = self.config.cadence
        self._n_snapshots = 0
        self._last_incident: Optional[float] = None
        self._trigger_set = frozenset(self.config.triggers)
        self._emitting = False
        self._finalized = False
        # The row list's bound append, which the tracer calls per span;
        # None once bind makes the ring a span-list view.
        self._ring_append = self.recorder.append
        #: Set to a list by a fleet merging this plane's stream: each
        #: trigger-kind span then appends ``(time, kind, query_id,
        #: attrs, row)``, ``row`` its absolute recorder index.
        self.marks: Optional[List[tuple]] = None
        self._merge = None

    # -- attachment ----------------------------------------------------

    def bind(self, tracer) -> None:
        """Called by the tracer when attached; one tracer per plane."""
        if self._tracer is not None and self._tracer is not tracer:
            raise ValueError(
                "LiveTelemetry is already bound to a tracer — build one "
                "plane per RecordingTracer"
            )
        self._tracer = tracer
        self._metrics = tracer.metrics
        if getattr(tracer, "keep_spans", False):
            # The tracer's own span list doubles as the flight ring.
            self.recorder.use_span_list(tracer.spans)
            self._ring_append = None

    def attach_control_log(self, log) -> None:
        """Attach the controller's action log; bundles then carry the
        breach-window slice of it."""
        self._control_log = log

    def attach_decisions(self, log) -> None:
        """Attach a :class:`~repro.obs.explain.DecisionLog`; bundles
        then carry the blamed queries' decision records."""
        self._decisions = log

    def attach_merge(self, merge) -> None:
        """Attach the sources this plane's tracer does not fold (a
        fleet's shards). ``merge.rollup(own, boundary)`` turns the
        snapshot of this tracer's registry at a boundary (``None`` for
        the final partial snapshot) into the merged one, and
        ``merge.window(totals, boundary)`` turns this tracer's registry
        totals at a trigger, with this recorder's ring, into the merged
        ring spans and totals (``boundary`` set for a boundary's
        anomaly). ``merge.shard_tracers`` are the merged sources'
        tracers, each carrying its own plane (:attr:`sources`)."""
        self._merge = merge

    # -- hot path ------------------------------------------------------

    def _maybe_trigger(
        self, kind: str, time: float, query_id: int, attrs
    ) -> None:
        """Trigger hook, called from the tracer's fold chain on the
        span kinds of :data:`DEFAULT_TRIGGERS`, before their fold."""
        if kind in self._trigger_set:
            if self.marks is not None:
                recorder = self.recorder
                self.marks.append((
                    time, kind, query_id, attrs,
                    recorder.base + len(recorder.rows) - 1,
                ))
            self._freeze(kind, time, query_id, dict(attrs))

    def tick(self, now: float) -> None:
        """Flush every snapshot boundary at or before ``now``."""
        if now >= self._next_due:
            self._flush(now)

    def finalize(self, end_time: float) -> None:
        """Flush due boundaries and cut one final partial snapshot."""
        if self._finalized:
            return
        self._finalized = True
        self.tick(end_time)
        if self._metrics is not None and end_time > (
            self._next_due - self.config.cadence
        ):
            self._emit_snapshot(end_time)

    # -- read side -----------------------------------------------------

    @property
    def latest(self) -> Optional[TelemetrySnapshot]:
        """Most recent snapshot (None before the first boundary)."""
        return self.snapshots[-1] if self.snapshots else None

    @property
    def sources(self) -> List["LiveTelemetry"]:
        """This plane, then the planes of the sources it merges (a
        fleet's shard planes, once its run has built them)."""
        if self._merge is None:
            return [self]
        return [self] + [t.live for t in self._merge.shard_tracers]

    def write_artifacts(
        self, out_dir: Union[str, Path], stem: str
    ) -> List[Path]:
        """Write the snapshot stream (JSONL) and every incident bundle.

        Returns the written paths: ``{stem}_snapshots.jsonl`` first,
        then ``{stem}_incident_NN.json`` per bundle.
        """
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written: List[Path] = []
        snaps_path = out_dir / f"{stem}_snapshots.jsonl"
        snaps_path.write_text(
            "".join(
                json.dumps(snap.to_dict(), sort_keys=True) + "\n"
                for snap in self.snapshots
            )
        )
        written.append(snaps_path)
        for bundle in self.incidents:
            path = out_dir / f"{stem}_incident_{bundle['seq']:02d}.json"
            write_incident_json(bundle, path)
            written.append(path)
        return written

    # -- internals -----------------------------------------------------

    def _flush(self, now: float) -> None:
        """Emit a snapshot for every boundary at or before ``now``."""
        if self._metrics is None:
            # Unbound (tracer never attached): nothing to snapshot.
            self._next_due = (
                (now // self.config.cadence) + 1
            ) * self.config.cadence
            return
        while self._next_due <= now:
            boundary = self._next_due
            self._next_due = boundary + self.config.cadence
            self._emit_snapshot(boundary, boundary)
        self.recorder.trim()

    def cut(self, time: float) -> TelemetrySnapshot:
        """The registry's state now, as an unnumbered snapshot at
        ``time`` (window counters empty)."""
        totals: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        digests: Dict[str, Dict[str, object]] = {}
        registry = self._metrics
        for name in registry.names():
            metric = registry.get(name)
            if isinstance(metric, Counter):
                totals[name] = metric.value
            elif isinstance(metric, Gauge):
                if metric.last is not None:
                    gauges[name] = metric.last
            elif isinstance(metric, StreamingHistogram):
                digests[name] = metric.checkpoint()
        return TelemetrySnapshot(
            self._n_snapshots, time, self.source, {}, totals, gauges, digests,
        )

    def _emit_snapshot(
        self, time: float, boundary: Optional[float] = None
    ) -> None:
        snap = self.cut(time)
        if self._merge is not None:
            snap = self._merge.rollup(snap, boundary)
        prev = self._prev_totals
        counters = snap.counters = {}
        for name, value in snap.totals.items():
            delta = value - prev.get(name, 0.0)
            if delta:
                counters[name] = delta
        self._prev_totals = dict(snap.totals)
        self._n_snapshots += 1
        self.snapshots.append(snap)
        self._emit(
            SNAPSHOT, time,
            seq=snap.seq,
            arrived=counters.get("queries.arrived", 0.0),
            completed=counters.get("queries.completed", 0.0),
            rejected=counters.get("queries.rejected", 0.0),
        )
        if self.watchdog is not None:
            verdict = self.watchdog.close_window()
            if verdict is not None:
                attrs = dict(verdict)
                self._emit(ANOMALY, time, **attrs)
                if ANOMALY in self._trigger_set:
                    self._freeze(ANOMALY, time, -1, attrs, boundary)

    def _freeze(
        self, kind: str, time: float, query_id: int,
        attrs: Dict[str, object], boundary: Optional[float] = None,
    ) -> None:
        config = self.config
        if len(self.incidents) >= config.max_incidents or (
            self._last_incident is not None
            and time - self._last_incident < config.incident_cooldown
        ):
            self.suppressed += 1
            return
        self._last_incident = time
        if self._merge is not None:
            ring_spans, totals = self._merge.window(self._totals(), boundary)
        else:
            ring_spans, totals = self.recorder.spans(), self._totals()
        control = None
        if self._control_log is not None:
            window_start = ring_spans[0].time if ring_spans else time
            control = self._control_log.slice(window_start, time)
        bundle = self.recorder.freeze(
            kind, time, query_id, attrs,
            seq=len(self.incidents),
            source=self.source,
            totals=totals,
            snapshots=self.snapshots,
            ring_spans=ring_spans,
            control=control,
        )
        if self._decisions is not None:
            decisions: Dict[str, List[Dict[str, object]]] = {}
            for entry in bundle["blame"]:
                qid = int(entry["query_id"])
                records = self._decisions.for_query(qid)
                if records:
                    decisions[str(qid)] = [r.to_dict() for r in records]
            bundle["decisions"] = decisions
        self.incidents.append(bundle)
        self._emit(
            INCIDENT, time,
            trigger=kind, seq=bundle["seq"], spans=bundle["window"]["spans"],
        )

    def _totals(self) -> Dict[str, float]:
        registry = self._metrics
        if registry is None:
            return {}
        return {
            name: registry.get(name).value
            for name in registry.names()
            if isinstance(registry.get(name), Counter)
        }

    def _emit(self, kind: str, time: float, **attrs) -> None:
        """Emit a meta span through the tracer, re-entrancy guarded."""
        tracer = self._tracer
        if tracer is None or self._emitting:
            return
        self._emitting = True
        try:
            tracer.emit(kind, time, **attrs)
        finally:
            self._emitting = False


# -- incident bundle serialization ----------------------------------------


def write_incident_json(
    bundle: Dict[str, object], path: Union[str, Path]
) -> Path:
    """Write one incident bundle, deterministically serialized
    (sorted keys, fixed indent) so same-seed reruns byte-match modulo
    the real-wall-clock ``wall_s`` span attributes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(bundle, indent=2, sort_keys=True) + "\n")
    return path


def read_incident_json(path: Union[str, Path]) -> Dict[str, object]:
    """Read and schema-check an incident bundle."""
    path = Path(path)
    bundle = json.loads(path.read_text())
    schema = bundle.get("schema") if isinstance(bundle, dict) else None
    if schema != INCIDENT_SCHEMA:
        raise ValueError(
            f"{path}: expected a {INCIDENT_SCHEMA!r} incident bundle, "
            f"found schema {schema!r}"
        )
    return bundle


def _is_wall_key(key: object) -> bool:
    """True for keys holding real-wall-clock data: the ``wall_s`` span
    attribute, the ``scheduler.wall_s`` histogram checkpoint embedded
    in snapshots, and the ``sched.phase_s.*`` wall-clock counters."""
    return isinstance(key, str) and (
        "wall" in key or key.startswith("sched.phase_s")
    )


def _scrub_wall(obj):
    """Recursively drop real-wall-clock keys — the only
    nondeterministic fields a bundle can carry."""
    if isinstance(obj, dict):
        return {
            key: _scrub_wall(value)
            for key, value in obj.items()
            if not _is_wall_key(key)
        }
    if isinstance(obj, list):
        return [_scrub_wall(item) for item in obj]
    return obj


def incident_fingerprint(bundle: Dict[str, object]) -> str:
    """Canonical JSON of a bundle minus wall-clock fields — the
    byte-identity unit of the determinism contract."""
    return json.dumps(_scrub_wall(bundle), sort_keys=True)
