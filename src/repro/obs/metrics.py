"""Counters, time-keyed gauges and streaming histograms.

The serving simulator samples these in *simulated* time (buffer depth,
utilization) and in *real* time (scheduler invocation wall-clock). All
metrics are bounded-memory: gauges store their samples (one per event,
linear in trace size), histograms keep exact summary moments plus a
mergeable :class:`~repro.obs.digest.QuantileDigest` so quantiles stay
accurate without retaining every observation — the property that lets a
100k-query day trace run with tracing on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.digest import QuantileDigest


class Counter:
    """A monotonically increasing (float-valued) event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the running total."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def summary(self) -> Dict[str, float]:
        """One-key summary used by the registry dump."""
        return {"count": float(self.value)}


class Gauge:
    """A value sampled over (simulated) time: ``(t, value)`` pairs."""

    __slots__ = ("name", "_times", "_values")

    def __init__(self, name: str):
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def sample(self, t: float, value: float) -> None:
        """Record ``value`` at time ``t`` (times need not be distinct)."""
        self._times.append(float(t))
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._values)

    def absorb(self, *others: "Gauge") -> None:
        """Interleave the samples of ``others`` with this gauge's by
        time; samples at the same time keep source order — ``others``
        in the order given, then this gauge's own."""
        sources = [g for g in others if g._times]
        if not sources:
            return
        sources.append(self)
        times = [t for g in sources for t in g._times]
        values = [v for g in sources for v in g._values]
        order = np.argsort(np.asarray(times), kind="stable")
        self._times = np.asarray(times)[order].tolist()
        self._values = np.asarray(values)[order].tolist()

    @property
    def last(self) -> Optional[float]:
        """Most recently sampled value (None when never sampled)."""
        return self._values[-1] if self._values else None

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, values)`` as float arrays, in sample order."""
        return (
            np.asarray(self._times, dtype=float),
            np.asarray(self._values, dtype=float),
        )

    def binned_max(self, duration: float, n_bins: int) -> np.ndarray:
        """Max sampled value per equal time bin over ``[0, duration]``.

        Bins with no sample report 0 — for buffer depth that reads as
        "empty", which is the quantity the report plots over time.
        """
        if duration <= 0 or n_bins < 1:
            raise ValueError("duration must be > 0 and n_bins >= 1")
        out = np.zeros(n_bins)
        times, values = self.as_arrays()
        if times.size == 0:
            return out
        bins = np.minimum(
            (times / duration * n_bins).astype(int), n_bins - 1
        )
        np.maximum.at(out, bins, values)
        return out

    def summary(self) -> Dict[str, float]:
        """Mean / max / last over all samples (NaN when empty)."""
        if not self._values:
            return {"mean": float("nan"), "max": float("nan"),
                    "last": float("nan"), "samples": 0.0}
        values = np.asarray(self._values)
        return {
            "mean": float(values.mean()),
            "max": float(values.max()),
            "last": float(values[-1]),
            "samples": float(values.size),
        }


class StreamingHistogram:
    """Bounded-memory distribution sketch with t-digest quantiles.

    Backed by a :class:`~repro.obs.digest.QuantileDigest`: exact
    count/sum/min/max for every observation, plus ``O(compression)``
    weighted centroids for quantiles. Unlike the reservoir sketch this
    replaced, it is fully deterministic (no sampling), mergeable across
    histograms, and keeps the report percentiles within 1% rank error
    at a fraction of the memory; relative error in value is that small
    only where the distribution is smooth (see ``repro.obs.digest``).
    """

    def __init__(self, name: str, compression: int = 128):
        self.name = name
        self._digest = QuantileDigest(compression=compression)

    @property
    def compression(self) -> int:
        """Digest accuracy/memory knob δ (see :class:`QuantileDigest`)."""
        return self._digest.compression

    @property
    def count(self) -> int:
        """Exact number of observations."""
        return self._digest.count

    @property
    def total(self) -> float:
        """Exact sum of observations."""
        return self._digest.total

    @property
    def min(self) -> float:
        """Exact minimum (``inf`` when empty)."""
        return self._digest.min

    @property
    def max(self) -> float:
        """Exact maximum (``-inf`` when empty)."""
        return self._digest.max

    def add(self, value: float) -> None:
        """Fold one observation into the sketch."""
        self._digest.add(value)

    def merge(self, *others: "StreamingHistogram") -> None:
        """Absorb the observations of every histogram in ``others``
        (one digest-level merge pass)."""
        self._digest.merge(*(other._digest for other in others))

    def checkpoint(self) -> Dict[str, object]:
        """Full mergeable digest state (``QuantileDigest.to_dict``) —
        the unit live telemetry snapshots carry so per-shard sketches
        roll up into fleet quantiles without the raw observations."""
        return self._digest.to_dict()

    def state(self) -> tuple:
        """The digest's checkpoint by reference
        (:meth:`~repro.obs.digest.QuantileDigest.state`): O(1), and it
        leaves this histogram uncompressed, so a live plane that takes
        one at every snapshot boundary never steers the histogram."""
        return self._digest.state()

    def n_retained(self) -> int:
        """Values currently held (centroids + buffer) — the memory bound."""
        return self._digest.n_centroids()

    @property
    def mean(self) -> float:
        """Exact mean of all observations (NaN when empty)."""
        return self._digest.mean

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (exact min/max at q ∈ {0, 1})."""
        return self._digest.quantile(q)

    def summary(self) -> Dict[str, float]:
        """count / mean / p50 / p95 / p99 / min / max."""
        if self.count == 0:
            nan = float("nan")
            return {"count": 0.0, "mean": nan, "p50": nan, "p95": nan,
                    "p99": nan, "min": nan, "max": nan}
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Named metric store with get-or-create accessors.

    One registry collects everything a serving run observes; the
    conventional metric names are documented in README.md's
    Observability section.
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, cls, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(name, Gauge)

    def histogram(
        self, name: str, compression: int = 128
    ) -> StreamingHistogram:
        """Get or create the streaming histogram ``name``."""
        return self._get(name, StreamingHistogram, compression=compression)

    def names(self) -> List[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def get(self, name: str):
        """The metric registered under ``name`` (KeyError if absent)."""
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def absorb(self, others: Sequence["MetricsRegistry"]) -> None:
        """Merge ``others`` into this registry: counters sum, histograms
        digest-merge in one pass, and gauge samples interleave by time
        (see :meth:`Gauge.absorb`: ties keep ``others`` in order, then
        this registry's own samples)."""
        names = sorted({name for other in others for name in other.names()})
        for name in names:
            found = [
                other._metrics[name] for other in others
                if name in other._metrics
            ]
            kind = type(found[0])
            if kind is Counter:
                counter = self.counter(name)
                for metric in found:
                    counter.inc(metric.value)
            elif kind is Gauge:
                self.gauge(name).absorb(*found)
            else:
                self.histogram(name, found[0].compression).merge(*found)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Nested ``{metric: {stat: value}}`` dump of every metric."""
        return {
            name: self._metrics[name].summary() for name in self.names()
        }
