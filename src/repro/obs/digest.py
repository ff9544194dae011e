"""Streaming quantile digests: bounded-memory percentile estimation.

:class:`QuantileDigest` is a from-scratch merging *t*-digest (Dunning &
Ertl): observations accumulate in a small insertion buffer and are
periodically merged into a sorted list of weighted centroids whose
permitted width follows the ``k2`` (log-odds) scale function

    k(q) = (δ/Z) · ln(q / (1 − q))

so centroids near the median absorb many points while the tails stay a
handful of points wide — exactly where deadline-miss analysis needs
resolution. The number of retained centroids is ``O(compression)``,
independent of how many values stream through, and the whole state of
two digests can be merged losslessly into one — the property that lets
per-segment or per-worker digests roll up into a run-level percentile
without keeping raw samples.

Everything is deterministic (no sampling), so traced runs reproduce
bit-identically. Accuracy against exact quantiles on the diurnal trace
is locked by ``tests/obs/test_digest.py`` (≤ 1% relative error at the
report percentiles while holding ≥ 100x fewer values than the old
reservoir).
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

__all__ = ["QuantileDigest"]


class QuantileDigest:
    """Mergeable bounded-memory quantile sketch (merging t-digest).

    Args:
        compression: Accuracy/memory knob δ. The digest keeps ``O(δ)``
            centroids (~0.6δ after a merge in practice); quantile error
            shrinks as ``O(1/δ)`` with the k2 scale concentrating
            accuracy at the tails. The default of 128 holds p50/p95/p99
            within 1% relative error on the diurnal-trace latency/slack
            distributions while storing ~80 centroids — ≥ 100x fewer
            values than exact quantiles over a 10k-sample run retain.
        buffer_size: Insertion buffer length; larger buffers merge less
            often (amortised O(log b) per add). Defaults to ``8δ``.
    """

    def __init__(self, compression: int = 128, buffer_size: int = 0):
        if compression < 8:
            raise ValueError(
                f"compression must be >= 8, got {compression}"
            )
        self.compression = int(compression)
        self._buffer_size = (
            int(buffer_size) if buffer_size > 0 else 8 * self.compression
        )
        self._means = np.zeros(0)
        self._weights = np.zeros(0)
        self._buf: List[float] = []
        self._reverse = False  # alternate merge direction per pass
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    # -- ingestion -----------------------------------------------------

    def add(self, value: float) -> None:
        """Fold one observation into the digest."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._buf.append(value)
        if len(self._buf) >= self._buffer_size:
            self._compress()

    def merge(self, other: "QuantileDigest") -> None:
        """Absorb ``other``'s full state (both stay valid; self grows)."""
        if other.count == 0:
            return
        other._compress()
        self._compress()
        self._means = np.concatenate([self._means, other._means])
        self._weights = np.concatenate([self._weights, other._weights])
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._merge_sorted()

    def _compress(self) -> None:
        """Drain the insertion buffer into the centroid list."""
        if not self._buf:
            return
        fresh = np.asarray(self._buf, dtype=float)
        self._buf.clear()
        self._means = np.concatenate([self._means, fresh])
        self._weights = np.concatenate(
            [self._weights, np.ones(fresh.shape[0])]
        )
        self._merge_sorted()

    def _merge_sorted(self) -> None:
        """One merge pass: sort centroids, then greedily coalesce
        neighbours while the scale budget allows (k-span ≤ 1).

        The budget is the k2 (log-odds) scale function

            k(q) = (δ/Z) · ln(q / (1 − q)),   Z = 4·ln(n/δ) + 21

        whose resolution grows like ``1/q(1−q)`` at the extremes — tail
        centroids stay a handful of points wide, which is what keeps
        p99 within 1% (k1's ``1/√q(1−q)`` lets ~n/δ points pool into a
        single p99 centroid). A centroid opening at quantile ``q`` may
        cover up to the ``q'`` whose odds are ``q/(1−q) · exp(Z/δ)``;
        the factor is fixed for the pass.

        Alternate passes sweep right-to-left (mirrored quantiles) so the
        greedy coalescing bias does not accumulate on one side — without
        this, repeated merges let mid-distribution centroids drift and
        p50 error grows with stream length.

        The sweep runs over Python lists with the open centroid in
        locals: numpy scalar reads cost more than the arithmetic.
        """
        order = np.argsort(self._means, kind="stable")
        means = self._means[order]
        weights = self._weights[order]
        if self._reverse:
            means = means[::-1]
            weights = weights[::-1]
        self._reverse = not self._reverse
        total = float(weights.sum())
        z = 4.0 * math.log(max(total / self.compression, 1.0)) + 21.0
        scale = math.exp(z / self.compression)

        out_means: List[float] = []
        out_weights: List[float] = []
        pairs = zip(means.tolist(), weights.tolist())
        mean, weight = next(pairs)  # the open centroid
        seen = 0.0  # weight fully to the sweep side of the centroid
        limit = 0.0  # extreme centroids stay singletons
        for value, value_weight in pairs:
            candidate = weight + value_weight
            if (seen + candidate) / total <= limit:
                # Coalesce: weighted mean keeps the centroid unbiased.
                mean += (value - mean) * value_weight / candidate
                weight = candidate
            else:
                out_means.append(mean)
                out_weights.append(weight)
                seen += weight
                q_left = seen / total
                if q_left <= 0.0:
                    limit = 0.0
                elif q_left >= 1.0:
                    limit = 1.0
                else:
                    odds = q_left / (1.0 - q_left) * scale
                    limit = odds / (1.0 + odds)
                mean = value
                weight = value_weight
        out_means.append(mean)
        out_weights.append(weight)
        if len(out_means) > 1 and out_means[0] > out_means[-1]:
            out_means.reverse()
            out_weights.reverse()
        self._means = np.asarray(out_means)
        self._weights = np.asarray(out_weights)

    # -- queries -------------------------------------------------------

    @property
    def mean(self) -> float:
        """Exact mean of all observations (NaN when empty)."""
        return self.total / self.count if self.count else float("nan")

    def n_centroids(self) -> int:
        """Retained values (centroids + pending buffer) — the memory
        bound the accuracy tests compare against the old reservoir."""
        return int(self._means.shape[0]) + len(self._buf)

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (exact min/max at q ∈ {0, 1})."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        self._compress()
        means, weights = self._means, self._weights
        if means.shape[0] == 1:
            return float(means[0])
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        total = float(weights.sum())
        target = q * total
        # Centroid i covers the weight interval centred on its midpoint
        # rank; interpolate linearly between adjacent midpoints, with
        # the exact min/max anchoring the outermost half-centroids.
        cum = np.cumsum(weights)
        mids = cum - weights / 2.0
        if target <= mids[0]:
            left_span = mids[0]
            if left_span <= 0:
                return self.min
            frac = target / left_span
            return float(self.min + frac * (means[0] - self.min))
        if target >= mids[-1]:
            right_span = total - mids[-1]
            if right_span <= 0:
                return self.max
            frac = (target - mids[-1]) / right_span
            return float(means[-1] + frac * (self.max - means[-1]))
        hi = int(np.searchsorted(mids, target, side="left"))
        lo = hi - 1
        span = mids[hi] - mids[lo]
        frac = 0.0 if span <= 0 else (target - mids[lo]) / span
        return float(means[lo] + frac * (means[hi] - means[lo]))

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly full state (round-trips via :meth:`from_dict`)."""
        self._compress()
        return {
            "compression": self.compression,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "means": self._means.tolist(),
            "weights": self._weights.tolist(),
        }

    @classmethod
    def from_dict(cls, state: Dict[str, object]) -> "QuantileDigest":
        """Rebuild a digest serialized by :meth:`to_dict`."""
        digest = cls(compression=int(state["compression"]))
        digest.count = int(state["count"])
        digest.total = float(state["total"])
        digest.min = (
            float(state["min"]) if state["min"] is not None else float("inf")
        )
        digest.max = (
            float(state["max"]) if state["max"] is not None
            else float("-inf")
        )
        digest._means = np.asarray(state["means"], dtype=float)
        digest._weights = np.asarray(state["weights"], dtype=float)
        return digest
