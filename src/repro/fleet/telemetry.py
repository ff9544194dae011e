"""The telemetry merge of a traced fleet.

A traced :class:`~repro.fleet.server.FleetServer` does not replay its
shards' spans through the fleet tracer: each shard's stream is folded
by its own tracer, and the results merge. :class:`FleetTelemetry` is
that merge for one run: at each stop it folds the front end's and the
control side stream's spans into the fleet tracer in global
``(time, stream)`` order, with what it needs of the shards in between,
spending per item only what that item's fold needs; it supplies the
shards' part of every fleet snapshot and incident bundle to the
fleet's live plane (a fleet snapshot keeps its parts and merges their
digests when first read); and at the end of the run it merges the
shard registries into the fleet's and, when spans are kept, builds the
merged span stream."""

from __future__ import annotations

import bisect
import heapq
import math
from itertools import islice, starmap
from operator import itemgetter
from typing import Dict, List, Optional

from repro.obs import spans as sp
from repro.obs.live import TelemetrySnapshot
from repro.obs.metrics import Counter
from repro.obs.spans import Span
from repro.obs.tracer import RecordingTracer


#: Front-end span kinds; every other kind the fleet tracer folds itself
#: belongs to the control stream.
_FRONT_KINDS = frozenset((sp.ROUTE, sp.SHED, sp.REJECT))

_TERMINAL_KINDS = frozenset((sp.COMPLETE, sp.REJECT))

_ITEM_KEY = itemgetter(0, 1, 2, 3)

#: A row's time, the key of every bisect over recorder rows.
_TIME = itemgetter(1)


class FleetTelemetry:
    """One traced fleet run's telemetry merge.

    Each shard's stream is folded by its shard tracer; the front end's
    and the control side stream's by the fleet tracer itself (the side
    stream's collector is read for its spans only). At each stop the
    fleet tracer folds its two streams in merged order — ``(time,
    stream)``, streams ordered front end, shards 0..n-1, control —
    interleaved with what it needs of the shards: their resolved
    outcomes (for the watchdog and an ``slo`` monitor) and their
    trigger marks (for the fleet plane). Nothing a shard tracer folded
    is folded again; at the end of the run the shard registries merge
    into the fleet's (:meth:`~repro.obs.metrics.MetricsRegistry.absorb`).

    Attached to the fleet's live plane, it supplies the shards' part of
    each fleet snapshot (:meth:`rollup`) and of each incident bundle
    (:meth:`window`): a bundle cuts every shard's recorder rows at the
    trigger's merged-stream position, k-way merges the cut tails with
    the fleet's own ring, and totals each shard's counters at the cut.
    """

    def __init__(self, tracer, shard_tracers, shard_ids, servers, ctrl):
        self.tracer = tracer
        self.live = tracer.live
        self.shard_tracers = shard_tracers
        self.shard_ids = shard_ids
        self.servers = servers
        self.ctrl = ctrl
        self.n = len(shard_tracers)
        self.front: List[tuple] = []
        self.wants_outcomes = tracer.slo is not None or (
            self.live is not None and self.live.watchdog is not None
        )
        self._outcomes: List[List[tuple]] = [[] for _ in shard_tracers]
        # Items folded so far: front rows, control spans, shard marks.
        self._front_at = self._ctrl_at = 0
        self._marks_at = [0] * self.n
        self._terminal_at = [0] * self.n
        # Merge keys of fleet-plane ring rows an slo monitor emitted on a
        # shard's outcome; every other ring row keys by its kind.
        self._own_keys: Dict[int, tuple] = {}
        # The merged-stream position being folded: (time, stream, end,
        # counted) — for a shard item, the absolute row its bundle
        # window ends before and the row its totals stop before.
        self._position = (0.0, -1, None, None)
        # Merge keys of the fleet tracer's kept spans, one per span.
        self._keys: List[tuple] = []
        # Worker-id offsets each bundle's spans were remapped with.
        self._bundle_offsets: List[List[int]] = []
        if self.live is not None:
            self.live.attach_merge(self)
            for shard_tracer in shard_tracers:
                shard_tracer.live.recorder.hold = 0  # until the first stop

    # -- the fold ------------------------------------------------------

    def add_outcomes(self, resolved: List[List[tuple]]) -> None:
        """Queue the outcomes each shard resolved since the last call."""
        if self.wants_outcomes:
            for pending, batch in zip(self._outcomes, resolved):
                pending += batch

    def step(self, cut: float) -> None:
        """Fold every merged-stream item before time ``cut``.

        Items sort on ``(time, stream, rank)``. Within a shard a trigger
        mark ranks by its recorder row; an outcome does too when an
        ``slo`` monitor (whose spans must follow it exactly) makes the
        fleet find its terminal row, and otherwise ranks after the
        shard's marks at that instant — where its crash-window events,
        pushed first, put them.
        """
        n = self.n
        inf = math.inf
        items = []
        front = self.front
        i = 0
        while i < len(front) and front[i][1] < cut:
            items.append((front[i][1], -1, self._front_at + i, 0, front[i]))
            i += 1
        del front[:i]
        self._front_at += i
        slo = self.tracer.slo
        for shard in range(n):
            pending = self._outcomes[shard]
            rows = self._rows(shard) if slo is not None else None
            i = 0
            while i < len(pending) and pending[i][0] < cut:
                t = pending[i][0]
                row = self._terminal_row(shard, rows) if rows else None
                rank = row if row is not None else inf
                items.append((t, shard, rank, i, (pending[i], row)))
                i += 1
            del pending[:i]
            live = self.shard_tracers[shard].live
            if live is not None:
                marks = live.marks
                i = self._marks_at[shard]
                while i < len(marks) and marks[i][0] < cut:
                    items.append(
                        (marks[i][0], shard, marks[i][4], 0, marks[i])
                    )
                    i += 1
                self._marks_at[shard] = i
        rows = self.ctrl.rows
        i = self._ctrl_at
        while i < len(rows) and rows[i][1] < cut:
            items.append((rows[i][1], n, i, 0, rows[i]))
            i += 1
        self._ctrl_at = i
        items.sort(key=_ITEM_KEY)

        tracer = self.tracer
        live = self.live
        watchdog = live.watchdog if live is not None else None
        # Per item only what its fold needs: a merge key when the fleet
        # keeps spans, and the merged-stream position wherever the fold
        # can freeze a bundle (marks, control spans and, under an slo
        # monitor, whatever it observes).
        keep = tracer.keep_spans
        for t, stream, rank, _, item in items:
            if live is not None and t >= live._next_due:
                self._tick(t)
            key = None
            if stream == -1 or stream == n:  # a front-end or control row
                kind, _, qid, attrs = item
                if stream == n or slo is not None:
                    self._position = (t, stream, None, None)
                tracer.emit(kind, t, qid, **attrs)
            elif len(item) == 5:  # a shard's trigger mark
                _, kind, qid, attrs, row = item
                # The bundle's window ends at the trigger row; its
                # totals stop before the trigger's own fold.
                self._position = (t, stream, row + 1, row)
                attrs = dict(attrs)
                self._remap_attrs(stream, attrs, self._offsets())
                live._maybe_trigger(
                    kind, t, self.shard_ids[stream][qid] if qid >= 0 else -1,
                    attrs,
                )
                key = (t, stream, row, 1)  # its incident span follows
            else:  # a shard's resolved outcome
                (_, missed, degraded, latency), row = item
                if watchdog is not None:
                    watchdog.ingest(missed, latency)
                if slo is not None:
                    if row is None:
                        self._position = (t, stream, None, None)
                        key = (t, stream, inf, 0)
                    else:
                        self._position = (t, stream, row + 1, row + 1)
                        key = (t, stream, row, 1)
                    own = live.recorder if live is not None else None
                    if own is not None:
                        start = own.base + len(own.rows)
                    slo.observe(t, missed=missed, degraded=degraded)
                    if own is not None:
                        # Its spans follow the outcome's row in rings.
                        for index in range(start, own.base + len(own.rows)):
                            self._own_keys[index] = key
            if keep:
                self._keyed(key if key is not None else (t, stream, rank, 0))
        if live is not None and cut < inf:
            # Shard rows before the cut now only serve ring windows.
            for shard_tracer in self.shard_tracers:
                recorder = shard_tracer.live.recorder
                recorder.hold = recorder.base + bisect.bisect_left(
                    recorder.rows, cut, key=_TIME
                )

    def _rows(self, shard: int):
        """Shard ``shard``'s rows as ``(rows, base)``, or None when it
        keeps none (no spans, no live plane)."""
        shard_tracer = self.shard_tracers[shard]
        if shard_tracer.rows is None:
            return None
        live = shard_tracer.live
        return shard_tracer.rows, 0 if live is None else live.recorder.base

    def _terminal_row(self, shard: int, rows) -> int:
        """Absolute row of the shard's next ``complete``/``reject``:
        outcomes and terminal spans come in the same order."""
        rows, base = rows
        i = max(self._terminal_at[shard], base)
        while rows[i - base][0] not in _TERMINAL_KINDS:
            i += 1
        self._terminal_at[shard] = i + 1
        return i

    def flush(self, stop: float) -> None:
        """Cut the fleet plane's snapshots up to ``stop``, once every
        item before it is folded and the stop's control actions are
        logged (a bundle's control slice includes its instant)."""
        if self.live is not None:
            self._tick(stop)

    def _tick(self, time: float) -> None:
        self.live.tick(time)
        if self.tracer.keep_spans:
            self._keyed(None)

    def _keyed(self, key: Optional[tuple]) -> None:
        """Key the fleet tracer's new kept spans for the final merge:
        with ``key``, or at their boundary (before that instant's
        spans) when they came from a flush."""
        keys = self._keys
        for row in self.tracer.rows[len(keys):]:
            keys.append(key if key is not None else (row[1], -2, 0, 0))

    def finish(self, end: float) -> Optional[List[List[Span]]]:
        """Fold the rest, finalize the fleet tracer at ``end`` and merge
        the shards into it; returns the remapped shard spans when the
        fleet keeps spans."""
        self.step(math.inf)
        tracer = self.tracer
        live = self.live
        self._position = (math.inf, self.n + 1, None, None)
        if live is not None:
            self._tick(end)
        tracer.finalize(end)
        if tracer.keep_spans:
            self._keyed((end, self.n + 1, 0, 0))
        offsets = self._offsets()
        if live is not None:
            # A bundle frozen mid-run remapped worker ids with the
            # deployments of its moment; ids are final-deployment ones.
            for bundle, used in zip(live.incidents, self._bundle_offsets):
                if used == offsets:
                    continue
                for attrs in [bundle["trigger"]["attrs"]] + bundle["spans"]:
                    if "shard" in attrs and "worker" in attrs:
                        shard = attrs["shard"]
                        attrs["worker"] += offsets[shard] - used[shard]
        # Gauge samples that tie keep the shards' first: the fleet
        # tracer's own come from the control stream, which sorts last.
        tracer.metrics.absorb([t.metrics for t in self.shard_tracers])
        for shard, shard_tracer in enumerate(self.shard_tracers):
            offset = offsets[shard]
            for ours, theirs in (
                (tracer.worker_busy, shard_tracer.worker_busy),
                (tracer.worker_model, shard_tracer.worker_model),
                (tracer.worker_downtime, shard_tracer.worker_downtime),
            ):
                for worker, value in theirs.items():
                    ours[worker + offset] = value
        if not tracer.keep_spans:
            return None
        shard_rows = [
            [self._remap(shard, row, offsets) for row in shard_tracer.rows]
            for shard, shard_tracer in enumerate(self.shard_tracers)
        ]
        streams = [zip(self._keys, tracer.rows)] + [
            zip([(row[1], shard, i, 0) for i, row in enumerate(rows)], rows)
            for shard, rows in enumerate(shard_rows)
        ]
        # In place: the fleet plane's recorder reads this same list.
        tracer.rows[:] = [
            row for _, row in heapq.merge(*streams, key=itemgetter(0))
        ]
        return [list(starmap(Span, rows)) for rows in shard_rows]

    # -- remapping -----------------------------------------------------

    def _offsets(self) -> List[int]:
        """Per-shard worker-id offsets, cumulative over the current
        deployments (scaled shards differ in worker count)."""
        offsets, total = [], 0
        for server in self.servers:
            offsets.append(total)
            total += server.n_workers
        return offsets

    def _remap_attrs(self, shard, attrs, offsets) -> None:
        attrs["shard"] = shard
        if "worker" in attrs:
            attrs["worker"] = int(attrs["worker"]) + offsets[shard]

    def _remap(self, shard, row, offsets) -> tuple:
        """A shard row as a fleet row: global query id, offset worker
        id and a ``shard`` attribute."""
        kind, time, qid, attrs = row
        attrs = dict(attrs)
        self._remap_attrs(shard, attrs, offsets)
        gid = self.shard_ids[shard][qid] if qid >= 0 else -1
        return kind, time, gid, attrs

    # -- the fleet plane's hooks ---------------------------------------

    def rollup(self, own: TelemetrySnapshot, boundary: Optional[float]):
        """The fleet snapshot: ``own`` (the fleet tracer's registry)
        rolled up with each shard's snapshot at ``boundary`` — or its
        state now, once it drained before it, or for the final partial
        snapshot (``boundary`` None)."""
        parts = [own]
        for shard_tracer in self.shard_tracers:
            shard_live = shard_tracer.live
            state = None
            if boundary is not None:
                for snap in reversed(shard_live.snapshots):
                    if snap.time <= boundary:
                        if snap.time == boundary:
                            state = snap
                        break
            parts.append(
                state if state is not None else shard_live.cut(own.time)
            )
        return TelemetrySnapshot.rollup(parts, source=own.source)

    def window(self, own_totals, boundary):
        """Ring spans and counter totals of a bundle frozen at the
        current position (at ``boundary`` for a boundary's anomaly):
        the newest ``ring_capacity`` rows of a k-way merge, from the
        cut backwards, of the fleet plane's ring and every shard's
        rows before its cut."""
        t, stream, end, counted_end = (
            (boundary, -2, None, None) if boundary is not None
            else self._position
        )
        offsets = self._offsets()
        self._bundle_offsets.append(offsets)
        sources = [self._own_back()]
        totals = dict(own_totals)
        for shard, shard_tracer in enumerate(self.shard_tracers):
            rows = shard_tracer.live.recorder
            if shard == stream and end is not None:
                cut, counted = end, counted_end
            else:
                find = bisect.bisect_right if shard <= stream else (
                    bisect.bisect_left
                )
                cut = counted = rows.base + find(rows.rows, t, key=_TIME)
            sources.append(_keyed_back(rows, cut, shard))
            for name, value in self._counters_at(shard, counted).items():
                totals[name] = totals.get(name, 0.0) + value
        newest = list(islice(
            heapq.merge(*sources, reverse=True),
            self.live.config.ring_capacity,
        ))
        spans = []
        for _, _, _, _, (source, index) in reversed(newest):
            if source < 0:
                kind, time, qid, attrs = self.live.recorder.row(index)
                spans.append(Span(kind, time, qid, dict(attrs)))
            else:
                recorder = self.shard_tracers[source].live.recorder
                spans.append(Span(*self._remap(
                    source, recorder.row(index), offsets
                )))
        return spans, totals

    def _own_back(self):
        """Merge keys of the fleet plane's ring rows, newest first."""
        n = self.n
        for index, kind, time in self.live.recorder.back():
            key = self._own_keys.get(index) or (
                time, -1 if kind in _FRONT_KINDS else n, index, 0
            )
            yield key + ((-1, index),)

    def _counters_at(self, shard: int, index: int) -> Dict[str, float]:
        """Shard ``shard``'s counters before absolute row ``index``: its
        counters now, less a scratch fold of its rows from there on."""
        shard_tracer = self.shard_tracers[shard]
        recorder = shard_tracer.live.recorder
        scratch = RecordingTracer(keep_spans=False)
        for i in range(index, recorder.base + len(recorder.rows)):
            kind, time, qid, attrs = recorder.row(i)
            scratch.emit(kind, time, qid, **attrs)
        later = scratch.metrics
        out = {}
        for name in shard_tracer.metrics.names():
            metric = shard_tracer.metrics.get(name)
            if isinstance(metric, Counter):
                value = metric.value - (
                    later.get(name).value if name in later else 0.0
                )
                if value:
                    out[name] = value
        return out


def _keyed_back(recorder, end, shard):
    """Merge keys of a shard's non-meta rows before ``end``, newest
    first."""
    for index, _, time in recorder.back(end):
        yield time, shard, index, 0, (shard, index)

