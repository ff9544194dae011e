"""Online SLO monitoring over the live span stream.

Schemble's headline numbers — deadline-miss rate and answer quality —
are *tail* properties of a bursty trace, and a global post-hoc average
hides exactly the episodes that matter (the 10–18 h diurnal burst).
:class:`SLOMonitor` watches the span stream as a
:class:`~repro.obs.tracer.RecordingTracer` records it and keeps
multi-resolution rolling windows (1 min / 10 min / 1 h of *simulated*
time by default) of two objectives:

* **deadline objective** — fraction of answered-or-rejected queries
  that missed their deadline, against an error budget
  (``miss_target``);
* **quality objective** — fraction of answers served degraded (partial
  ensemble), against ``degraded_target``.

Each window reports a **burn rate**: observed miss rate divided by the
budget. Burn rate 1.0 means the window is consuming its error budget
exactly as fast as allowed; 10x means ten times too fast. When the
alert window's burn rate crosses ``breach_burn`` the monitor opens an
*overload episode*, emits an ``slo_breach`` span plus a counter through
the tracer, and closes it with ``slo_recovered`` once the burn rate
falls back under ``recover_burn`` — so a burst shows up as a detected
episode with a start and an end, not just a worse global p99.

Memory is bounded: every window is a ring of ``resolution`` counting
buckets, independent of trace length, in the same spirit as the
quantile digests backing the histograms.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.spans import COMPLETE, REJECT, SLO_BREACH, SLO_RECOVERED
from repro.utils.validation import check_positive

__all__ = ["SLOConfig", "SLOMonitor", "Episode", "replay_spans"]


@dataclass(frozen=True)
class SLOConfig:
    """Objectives and detector thresholds for :class:`SLOMonitor`.

    Attributes:
        miss_target: Error budget for the deadline objective — the
            tolerated deadline-miss fraction (0.05 = at most 5% of
            queries may miss).
        degraded_target: Tolerated degraded-answer fraction (quality
            objective; only bites under fault injection).
        windows: Rolling window lengths in simulated seconds, shortest
            first. Defaults to 1 min / 10 min / 1 h.
        alert_window: The window the episode detector watches (must be
            one of ``windows``); shorter = faster detection, noisier.
        breach_burn: Burn rate at or above which an overload episode
            opens.
        recover_burn: Burn rate below which an open episode closes
            (set below ``breach_burn`` for hysteresis).
        min_events: Minimum events in the alert window before the
            detector may fire — keeps near-empty windows quiet.
        resolution: Counting buckets per window (the memory bound).
    """

    miss_target: float = 0.05
    degraded_target: float = 0.10
    windows: Tuple[float, ...] = (60.0, 600.0, 3600.0)
    alert_window: float = 60.0
    breach_burn: float = 1.0
    recover_burn: float = 1.0
    min_events: int = 20
    resolution: int = 20

    def __post_init__(self):
        check_positive("miss_target", self.miss_target)
        check_positive("degraded_target", self.degraded_target)
        if not self.windows:
            raise ValueError("windows must be non-empty")
        for w in self.windows:
            check_positive("window", w)
        if self.alert_window not in self.windows:
            raise ValueError(
                f"alert_window {self.alert_window} must be one of "
                f"windows {self.windows}"
            )
        check_positive("breach_burn", self.breach_burn)
        check_positive("recover_burn", self.recover_burn)
        if self.recover_burn > self.breach_burn:
            raise ValueError(
                "recover_burn must be <= breach_burn (hysteresis)"
            )
        if self.min_events < 1:
            raise ValueError("min_events must be >= 1")
        if self.resolution < 2:
            raise ValueError("resolution must be >= 2")


@dataclass
class Episode:
    """One detected overload episode (open until ``end`` is set)."""

    start: float
    end: Optional[float] = None
    peak_burn: float = 0.0
    window: float = 0.0

    @property
    def open(self) -> bool:
        return self.end is None

    def duration(self, until: Optional[float] = None) -> float:
        """Episode length; open episodes measure up to ``until``."""
        end = self.end if self.end is not None else until
        return max(0.0, (end if end is not None else self.start) - self.start)

    def to_dict(self) -> Dict[str, object]:
        return {
            "start": self.start,
            "end": self.end,
            "peak_burn": self.peak_burn,
            "window": self.window,
        }


class _Window:
    """One rolling window: a ring of counting buckets.

    Bucket ``i`` covers ``[i*width, (i+1)*width)`` simulated seconds;
    at most ``resolution + 1`` buckets are alive, so memory is constant
    regardless of trace length. Rates are computed over the buckets
    overlapping ``(t - length, t]``; running sums over the live buckets,
    updated on observe and on evict, make :meth:`counts` O(1).
    """

    __slots__ = (
        "length", "width", "_buckets", "_events", "_misses", "_degraded",
    )

    def __init__(self, length: float, resolution: int):
        self.length = length
        self.width = length / resolution
        # Each bucket: [index, events, misses, degraded]
        self._buckets: Deque[List[float]] = deque()
        self._events = self._misses = self._degraded = 0

    def observe(self, t: float, missed: bool, degraded: bool) -> None:
        idx = int(t / self.width)
        if self._buckets and self._buckets[-1][0] == idx:
            bucket = self._buckets[-1]
        else:
            bucket = [idx, 0, 0, 0]
            self._buckets.append(bucket)
        bucket[1] += 1
        bucket[2] += int(missed)
        bucket[3] += int(degraded)
        self._events += 1
        self._misses += int(missed)
        self._degraded += int(degraded)
        self._evict(t)

    def _evict(self, t: float) -> None:
        cutoff = t - self.length
        buckets = self._buckets
        while buckets and (buckets[0][0] + 1) * self.width <= cutoff:
            _, events, misses, degraded = buckets.popleft()
            self._events -= events
            self._misses -= misses
            self._degraded -= degraded

    def counts(self, t: float) -> Tuple[int, int, int]:
        """``(events, misses, degraded)`` in the window ending at ``t``."""
        self._evict(t)
        return self._events, self._misses, self._degraded


class SLOMonitor:
    """Streams span-level outcomes into rolling SLO windows.

    Feed it directly via :meth:`observe`, or hand it to
    ``RecordingTracer(slo=monitor)`` and the tracer wires completions,
    rejections and degraded answers through automatically, while the
    monitor's breach/recovery events flow back out as spans
    (``slo_breach`` / ``slo_recovered``) and counters
    (``slo.breaches`` / ``slo.recoveries``).
    """

    def __init__(self, config: Optional[SLOConfig] = None):
        self.config = config if config is not None else SLOConfig()
        resolution = self.config.resolution
        self._windows: Dict[float, _Window] = {
            length: _Window(length, resolution)
            for length in self.config.windows
        }
        self._alert = self._windows[self.config.alert_window]
        self._tracer = None
        self.episodes: List[Episode] = []
        self.events = 0
        self.misses = 0
        self.degraded = 0
        self.last_time = 0.0

    # -- wiring --------------------------------------------------------

    def bind(self, tracer) -> None:
        """Attach the tracer breach/recovery events are emitted through."""
        self._tracer = tracer

    # -- ingestion -----------------------------------------------------

    def observe(
        self, t: float, missed: bool, degraded: bool = False
    ) -> None:
        """Fold one resolved query (answered or rejected) at time ``t``."""
        self.events += 1
        self.misses += int(missed)
        self.degraded += int(degraded)
        if t > self.last_time:
            self.last_time = t
        for window in self._windows.values():
            window.observe(t, missed, degraded)
        self._detect(t)

    def _detect(self, t: float) -> None:
        """Run the hysteresis episode detector at ``t``.

        ``min_events`` gates only the *opening* of an episode (a
        near-empty window stays quiet). Closing deliberately ignores
        it: after a long idle gap the alert window drains below
        ``min_events`` with the episode still open, and the old
        early-return left it stuck open — unable to emit
        ``slo_recovered`` — until ``min_events`` fresh events arrived.
        An open episode now closes as soon as the window's burn rate
        (0.0 once the window is empty) falls under ``recover_burn``.
        """
        config = self.config
        events, misses, _ = self._alert.counts(t)
        burn = (
            (misses / events) / config.miss_target if events else 0.0
        )
        episode = self.episodes[-1] if self.episodes else None
        in_breach = episode is not None and episode.open
        if in_breach:
            episode.peak_burn = max(episode.peak_burn, burn)
            if burn < config.recover_burn:
                episode.end = t
                self._emit(SLO_RECOVERED, t, burn, misses, events,
                           duration=episode.duration())
        elif events >= config.min_events and burn >= config.breach_burn:
            self.episodes.append(
                Episode(start=t, peak_burn=burn,
                        window=config.alert_window)
            )
            self._emit(SLO_BREACH, t, burn, misses, events)

    def poll(self, t: float) -> None:
        """Run the episode detector at ``t`` without a new event.

        The span stream only drives detection when queries resolve, so
        during an idle gap an open episode would otherwise linger until
        the next resolution. A control plane polling at its decision
        interval closes episodes promptly (the alert window evicts up
        to ``t``, so a drained window reads burn 0.0 and recovers).
        """
        if t > self.last_time:
            self.last_time = t
        self._detect(t)

    def _emit(self, kind: str, t: float, burn: float, misses: int,
              events: int, **extra) -> None:
        if self._tracer is not None:
            self._tracer.emit(
                kind, t,
                window=self.config.alert_window,
                burn_rate=burn,
                miss_rate=misses / events if events else 0.0,
                **extra,
            )

    def finalize(self, end_time: float) -> None:
        """Close the trace; an episode still open stays open (its
        ``end`` remains None) but its extent is measurable up to here."""
        if end_time > self.last_time:
            self.last_time = end_time

    # -- queries -------------------------------------------------------

    def alert_burn(self, t: Optional[float] = None) -> float:
        """Burn rate of the alert window at ``t`` (defaults to the
        last observed time), with control-plane-friendly semantics:
        the rate is computed over the events actually present — a
        not-yet-full window (run start, or refilling after an idle
        gap) is *not* diluted by its empty portion — and an empty
        window reads 0.0 (no evidence of burning) rather than NaN.
        """
        at = t if t is not None else self.last_time
        events, misses, _ = self._alert.counts(at)
        if not events:
            return 0.0
        return (misses / events) / self.config.miss_target

    def alert_events(self, t: Optional[float] = None) -> int:
        """Events currently in the alert window (the detector's
        ``min_events`` evidence count)."""
        at = t if t is not None else self.last_time
        events, _, _ = self._alert.counts(at)
        return events

    def burn_rates(self, t: Optional[float] = None) -> Dict[float, float]:
        """Current burn rate per window (NaN where the window is empty).

        Rates are computed over the events each window actually holds:
        at run start (window not yet full) and right after an idle gap
        the denominator is the observed event count, never the nominal
        window capacity — a half-full window with half its events
        missing reads a burn of ``0.5 / miss_target``, not a diluted
        ``0.25 / miss_target``. Empty windows report NaN (no evidence)
        instead of a silent 0.0; :meth:`alert_burn` maps that to 0.0
        for consumers that need a total order."""
        at = t if t is not None else self.last_time
        out: Dict[float, float] = {}
        for length, window in self._windows.items():
            events, misses, _ = window.counts(at)
            out[length] = (
                (misses / events) / self.config.miss_target
                if events else float("nan")
            )
        return out

    def window_stats(
        self, t: Optional[float] = None
    ) -> Dict[float, Dict[str, float]]:
        """Per-window events / miss rate / degraded rate / burn rate."""
        at = t if t is not None else self.last_time
        out: Dict[float, Dict[str, float]] = {}
        for length, window in self._windows.items():
            events, misses, degraded = window.counts(at)
            miss_rate = misses / events if events else float("nan")
            degraded_rate = degraded / events if events else float("nan")
            out[length] = {
                "events": float(events),
                "miss_rate": miss_rate,
                "degraded_rate": degraded_rate,
                "burn_rate": (
                    miss_rate / self.config.miss_target
                    if events else float("nan")
                ),
                "quality_burn_rate": (
                    degraded_rate / self.config.degraded_target
                    if events else float("nan")
                ),
            }
        return out

    def summary(self) -> Dict[str, object]:
        """Run-level roll-up for reports and the ``slo`` CLI command."""
        return {
            "events": self.events,
            "misses": self.misses,
            "degraded": self.degraded,
            "miss_rate": (
                self.misses / self.events if self.events else float("nan")
            ),
            "miss_target": self.config.miss_target,
            "episodes": [e.to_dict() for e in self.episodes],
            "windows": self.window_stats(),
        }


def replay_spans(spans, config: Optional[SLOConfig] = None) -> SLOMonitor:
    """Rebuild an :class:`SLOMonitor` offline from a recorded span
    stream (e.g. a ``*_spans.jsonl`` dump) — the ``repro slo`` command.

    Only completion/rejection outcomes matter; the spans may be the
    full lifecycle stream.
    """
    monitor = SLOMonitor(config)
    last = 0.0
    for span in spans:
        if span.kind == COMPLETE:
            monitor.observe(
                span.time,
                missed=float(span.attrs.get("slack", 0.0)) < 0.0,
                degraded=bool(span.attrs.get("degraded", False)),
            )
        elif span.kind == REJECT:
            monitor.observe(span.time, missed=True)
        if span.time > last:
            last = span.time
    monitor.finalize(last)
    return monitor
