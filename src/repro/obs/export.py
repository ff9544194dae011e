"""Span exporters: JSONL and Chrome ``trace_event`` timelines.

The JSONL export is one span per line — greppable, streamable into
pandas. The Chrome export follows the Trace Event Format (the JSON
array flavour) and loads directly in ``chrome://tracing`` or Perfetto
(https://ui.perfetto.dev): workers appear as one lane each with a box
per executed task, the scheduler gets its own lane with a box per
invocation (width = simulated overhead), query lifecycle points render
as instant events, and buffer depth as a counter track.

Simulated seconds are exported as microseconds (the format's unit), so
timeline widths read directly as simulated time.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.digest import QuantileDigest
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    StreamingHistogram,
)
from repro.obs.spans import (
    ARRIVAL,
    COMMIT,
    COMPLETE,
    DECISION,
    DEGRADED,
    DISPATCH,
    ENTER_BUFFER,
    FAST_PATH,
    REJECT,
    RETRY,
    SCHEDULE,
    SLO_BREACH,
    SLO_RECOVERED,
    TASK_FAILED,
    WORKER_DOWN,
    Span,
)

_US = 1e6  # seconds -> trace_event microseconds
_PID = 1


def write_spans_jsonl(
    spans: Iterable[Span], path: Union[str, Path]
) -> Path:
    """Write one JSON object per span; returns the written path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict()))
            handle.write("\n")
    return path


def read_spans_jsonl(path: Union[str, Path]) -> List[Span]:
    """Parse a JSONL span dump back into :class:`Span` objects.

    Inverse of :meth:`Span.to_dict` / :func:`write_spans_jsonl`: the
    flat payload keys become ``attrs`` again and a missing ``query_id``
    restores the run-level ``-1``. Round-trip equality is locked by
    ``tests/obs/test_export.py``.
    """
    spans: List[Span] = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        payload = json.loads(line)
        kind = payload.pop("kind")
        time = float(payload.pop("time"))
        query_id = int(payload.pop("query_id", -1))
        spans.append(Span(kind, time, query_id, payload))
    return spans


def chrome_trace_events(
    spans: Sequence[Span],
    worker_names: Optional[Dict[int, str]] = None,
) -> List[dict]:
    """Convert spans into a Chrome ``traceEvents`` list.

    Args:
        spans: The recorded span stream (any order; times are absolute).
        worker_names: Optional ``{worker_id: label}`` for the worker
            lanes; defaults to ``worker {id} (model {k})`` derived from
            dispatch spans.
    """
    workers = sorted(
        {int(s.attrs["worker"]) for s in spans if s.kind == DISPATCH}
        | {int(s.attrs["worker"]) for s in spans if s.kind == WORKER_DOWN}
    )
    sched_tid = (max(workers) + 1) if workers else 0
    lifecycle_tid = sched_tid + 1

    events: List[dict] = [
        {
            "ph": "M", "pid": _PID, "tid": 0, "name": "process_name",
            "args": {"name": "EnsembleServer (simulated time)"},
        }
    ]
    names = dict(worker_names or {})
    models = {
        int(s.attrs["worker"]): int(s.attrs["model"])
        for s in spans if s.kind == DISPATCH
    }
    for worker in workers:
        label = names.get(
            worker,
            f"worker {worker} (model {models[worker]})"
            if worker in models else f"worker {worker}",
        )
        events.append({
            "ph": "M", "pid": _PID, "tid": worker, "name": "thread_name",
            "args": {"name": label},
        })
    events.append({
        "ph": "M", "pid": _PID, "tid": sched_tid, "name": "thread_name",
        "args": {"name": "scheduler"},
    })
    events.append({
        "ph": "M", "pid": _PID, "tid": lifecycle_tid, "name": "thread_name",
        "args": {"name": "query lifecycle"},
    })

    for span in spans:
        ts = span.time * _US
        if span.kind == DISPATCH:
            start = float(span.attrs["start"])
            finish = float(span.attrs["finish"])
            events.append({
                "ph": "X", "pid": _PID,
                "tid": int(span.attrs["worker"]),
                "ts": start * _US,
                "dur": max((finish - start) * _US, 1.0),
                "name": f"q{span.query_id} m{span.attrs['model']}",
                "cat": "task",
                "args": {"query_id": span.query_id,
                         "model": span.attrs["model"]},
            })
        elif span.kind == SCHEDULE:
            events.append({
                "ph": "X", "pid": _PID, "tid": sched_tid, "ts": ts,
                "dur": max(float(span.attrs["overhead_sim_s"]) * _US, 1.0),
                "name": f"schedule[{span.attrs['batch']}]",
                "cat": "scheduler",
                "args": dict(span.attrs),
            })
            events.append(_counter(ts, span.attrs["depth"]))
        elif span.kind == ENTER_BUFFER:
            events.append(_counter(ts, span.attrs["depth"]))
        elif span.kind == WORKER_DOWN:
            # A "DOWN" box on the worker's own lane, spanning the outage.
            until = float(span.attrs["until"])
            events.append({
                "ph": "X", "pid": _PID,
                "tid": int(span.attrs["worker"]),
                "ts": ts,
                "dur": max((until - span.time) * _US, 1.0),
                "name": "DOWN",
                "cat": "fault",
                "args": dict(span.attrs),
            })
        elif span.kind in (ARRIVAL, COMPLETE, REJECT, COMMIT, FAST_PATH,
                           TASK_FAILED, RETRY, DEGRADED,
                           SLO_BREACH, SLO_RECOVERED, DECISION):
            events.append({
                "ph": "i", "pid": _PID, "tid": lifecycle_tid, "ts": ts,
                "s": "t",
                "name": (f"{span.kind} q{span.query_id}"
                         if span.query_id >= 0 else span.kind),
                "cat": "lifecycle",
                "args": dict(span.attrs),
            })
    return events


def _counter(ts: float, depth) -> dict:
    return {
        "ph": "C", "pid": _PID, "ts": ts, "name": "buffer depth",
        "args": {"depth": float(depth)},
    }


def write_chrome_trace(
    spans: Sequence[Span],
    path: Union[str, Path],
    worker_names: Optional[Dict[int, str]] = None,
) -> Path:
    """Write a ``chrome://tracing`` / Perfetto-loadable timeline JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "traceEvents": chrome_trace_events(spans, worker_names),
        "displayTimeUnit": "ms",
    }
    path.write_text(json.dumps(payload))
    return path


def _prom_name(name: str) -> str:
    """Metric name in Prometheus exposition syntax, ``repro_`` prefixed."""
    return "repro_" + "".join(
        c if c.isalnum() or c == "_" else "_" for c in name
    )


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def _prom_label_value(value: object) -> str:
    """Escape a label value per the text exposition format: backslash,
    double quote and newline must be backslash-escaped inside the
    quotes."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def metrics_to_prometheus(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters map to ``counter`` samples, gauges to their last sampled
    value, histograms to ``summary`` families (quantile series plus
    ``_sum``/``_count``). One final scrape of a finished simulated run
    — for dashboards that speak Prometheus, and for diffing two runs
    with standard tooling.

    Output is deterministic: metric families are emitted in sorted
    name order and label values are escaped, so two scrapes of
    identical registries are byte-identical and diffable.
    ``parse_prometheus_text`` is the matching reader (round-trip
    locked by ``tests/obs/test_export.py``).

    Rendering only reads the registry, so a live one can be scraped
    mid-run from another thread (``repro.obs.serve``): each summary
    reads a copy of its digest's checkpoint
    (:meth:`~repro.obs.metrics.StreamingHistogram.state`), never
    compressing the digest the run is still adding to.
    """
    lines: List[str] = []
    # Sort by the *emitted* family name: sanitisation ("." -> "_") is
    # not order-preserving, and the determinism contract is on the
    # exposition bytes consumers scrape, not on the raw dotted names.
    for prom, name in sorted(
        (_prom_name(name), name) for name in registry.names()
    ):
        metric = registry.get(name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {_prom_value(metric.value)}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {prom} gauge")
            last = metric.last
            lines.append(
                f"{prom} "
                f"{_prom_value(last if last is not None else float('nan'))}"
            )
        elif isinstance(metric, StreamingHistogram):
            digest = QuantileDigest.from_state(metric.state())
            lines.append(f"# TYPE {prom} summary")
            for q in (0.5, 0.95, 0.99):
                lines.append(
                    f'{prom}{{quantile="{_prom_label_value(q)}"}} '
                    f"{_prom_value(digest.quantile(q))}"
                )
            lines.append(f"{prom}_sum {_prom_value(digest.total)}")
            lines.append(f"{prom}_count {digest.count}")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


_ESCAPE_RE = re.compile(r"\\(.)")


def _unescape_label(value: str) -> str:
    # One left-to-right pass: sequential str.replace would corrupt a
    # literal backslash followed by 'n' (escaped as ``\\n``) into a
    # newline. Inverse of ``_prom_label_value`` (property-tested in
    # tests/obs/test_prom_property.py).
    return _ESCAPE_RE.sub(
        lambda m: "\n" if m.group(1) == "n" else m.group(1), value
    )


def _parse_value(text: str) -> float:
    if text == "NaN":
        return float("nan")
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def parse_prometheus_text(
    text: str,
) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Parse text exposition output back into nested sample maps.

    Returns ``{metric_name: {((label, value), ...): sample_value}}``
    with label values unescaped; unlabeled samples key on the empty
    tuple. Inverse of :func:`metrics_to_prometheus` for round-trip
    checks and run diffing.
    """
    samples: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    # The exposition format is \n-delimited; splitlines() would also
    # break on exotic Unicode boundaries (\x1c-\x1e,  ...) that
    # are legal *unescaped* inside label values.
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {line!r}")
        labels: Tuple[Tuple[str, str], ...] = ()
        raw = match.group("labels")
        if raw:
            labels = tuple(
                (key, _unescape_label(value))
                for key, value in _LABEL_RE.findall(raw)
            )
        samples.setdefault(match.group("name"), {})[labels] = _parse_value(
            match.group("value")
        )
    return samples


def write_prometheus(
    registry: MetricsRegistry, path: Union[str, Path]
) -> Path:
    """Write :func:`metrics_to_prometheus` output to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(metrics_to_prometheus(registry))
    return path
