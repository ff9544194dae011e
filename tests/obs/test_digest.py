"""Streaming quantile digest: accuracy, memory bound, mergeability.

The headline acceptance test runs the real buffered Schemble policy on a
>10k-query diurnal trace and checks the digest's report percentiles stay
within 1% relative error of exact quantiles while retaining >= 100x
fewer values than exact computation would.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.traces import diurnal_trace
from repro.obs.digest import QuantileDigest
from repro.scheduling.dp import DPScheduler
from repro.serving.policies import BufferedSchedulingPolicy
from repro.serving.server import EnsembleServer
from repro.serving.workload import ServingWorkload

REPORT_QS = (0.5, 0.9, 0.95, 0.99)


def fill(values, compression=128):
    digest = QuantileDigest(compression=compression)
    for v in values:
        digest.add(v)
    return digest


def rel_error(digest, values, q):
    exact = float(np.quantile(values, q))
    denom = abs(exact) if abs(exact) > 1e-9 else 1.0
    return abs(digest.quantile(q) - exact) / denom


class TestBasics:
    def test_small_inputs_near_exact(self):
        digest = fill(range(10))
        assert digest.count == 10
        assert digest.mean == pytest.approx(4.5)
        assert digest.quantile(0.0) == 0.0
        assert digest.quantile(1.0) == 9.0
        assert digest.quantile(0.5) == pytest.approx(4.5)

    def test_single_value(self):
        digest = fill([3.25])
        assert digest.quantile(0.5) == 3.25
        assert digest.min == digest.max == 3.25

    def test_empty_quantile_is_nan(self):
        assert np.isnan(QuantileDigest().quantile(0.5))
        assert np.isnan(QuantileDigest().mean)

    def test_min_max_exact_on_long_streams(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 3, 25_000)
        digest = fill(values)
        assert digest.quantile(0.0) == values.min()
        assert digest.quantile(1.0) == values.max()
        assert digest.count == 25_000

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileDigest(compression=4)
        with pytest.raises(ValueError):
            QuantileDigest().quantile(1.5)
        with pytest.raises(ValueError):
            QuantileDigest().quantile(-0.1)


class TestAccuracySynthetic:
    """Distribution-level bounds at compression 128. The diurnal-trace
    acceptance test below locks the tighter 1% production claim; these
    guard against regressions across distribution shapes (heavy tails
    get a looser bound — interpolation across convex tail gaps is the
    known t-digest error mode)."""

    @pytest.mark.parametrize("gen,bound", [
        (lambda r: r.uniform(0, 1, 40_000), 0.01),
        (lambda r: r.normal(5, 1, 40_000), 0.01),
        (lambda r: r.exponential(1.0, 40_000), 0.015),
        (lambda r: r.lognormal(0, 1.5, 40_000), 0.025),
    ])
    def test_report_percentiles(self, gen, bound):
        values = gen(np.random.default_rng(7))
        digest = fill(values)
        for q in REPORT_QS:
            assert rel_error(digest, values, q) <= bound, f"q={q}"

    def test_memory_bound_independent_of_stream_length(self):
        rng = np.random.default_rng(1)
        digest = QuantileDigest(compression=128)
        sizes = []
        for _ in range(10):
            for v in rng.lognormal(0, 1, 10_000):
                digest.add(v)
            digest.quantile(0.5)  # forces a compress
            sizes.append(digest.n_centroids())
        assert digest.count == 100_000
        assert max(sizes) <= 2 * 128
        # Memory plateaus: the last pass holds no more than the first + slack.
        assert sizes[-1] <= sizes[0] + 32


def rank_error(digest, values, q):
    """How far the estimate's rank in ``values`` (its mid-rank among
    ties), as a share of the stream, lies from ``q``."""
    ordered = np.sort(values)
    estimate = digest.quantile(q)
    rank = (
        np.searchsorted(ordered, estimate, "left")
        + np.searchsorted(ordered, estimate, "right")
    ) / 2
    return abs(rank / ordered.shape[0] - q)


class TestRankBound:
    """The bound the digest keeps whatever the shape: each report
    percentile's estimate ranks within 1% of its quantile. Relative
    error has no such bound: on a two-mode latency, where a rank step
    can cross a gap between values, it reached 2.1% at p50 for one
    digest and 3.8% for a four-shard merge on ``control_burst``."""

    @pytest.mark.parametrize("seed", range(3))
    def test_two_mode_stream_single_and_four_way_merge(self, seed):
        rng = np.random.default_rng(seed)
        n = 9_000
        fast = rng.random(n) < 0.72
        values = np.where(fast, 0.005, 0.092) * rng.lognormal(0, 0.15, n)
        single = fill(values)
        merged = QuantileDigest()
        merged.merge(*(fill(values[k::4]) for k in range(4)))
        assert merged.count == n
        for q in (0.5, 0.95, 0.99):
            assert rank_error(single, values, q) <= 0.01, f"q={q}"
            assert rank_error(merged, values, q) <= 0.01, f"q={q}"


class TestDeterminismAndMerge:
    def test_deterministic(self):
        def build():
            return fill(float(v % 97) * 1.5 for v in range(5000)).to_dict()

        assert build() == build()

    def test_merge_matches_single_digest_accuracy(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(0, 1, 30_000)
        parts = np.array_split(values, 7)
        merged = fill(parts[0])
        for part in parts[1:]:
            merged.merge(fill(part))
        assert merged.count == 30_000
        assert merged.quantile(0.0) == values.min()
        assert merged.quantile(1.0) == values.max()
        for q in REPORT_QS:
            assert rel_error(merged, values, q) <= 0.02, f"q={q}"

    def test_merge_empty_is_noop(self):
        digest = fill([1.0, 2.0])
        state = digest.to_dict()
        digest.merge(QuantileDigest())
        assert digest.to_dict() == state

    def test_merge_leaves_other_valid(self):
        a, b = fill([1.0, 2.0]), fill([3.0, 4.0])
        a.merge(b)
        assert b.count == 2
        assert b.quantile(1.0) == 4.0
        assert a.count == 4


class TestSerialization:
    def test_round_trip_through_json(self):
        rng = np.random.default_rng(5)
        values = rng.exponential(2.0, 8_000)
        digest = fill(values)
        state = json.loads(json.dumps(digest.to_dict()))
        clone = QuantileDigest.from_dict(state)
        assert clone.count == digest.count
        assert clone.mean == pytest.approx(digest.mean)
        for q in (0.0, 0.25, 0.5, 0.95, 1.0):
            assert clone.quantile(q) == digest.quantile(q)

    def test_empty_round_trip(self):
        clone = QuantileDigest.from_dict(QuantileDigest().to_dict())
        assert clone.count == 0
        assert np.isnan(clone.quantile(0.5))


def reference_merge_sorted(self):
    """The merge pass in its numpy-scalar form: every mean and weight
    read as a numpy scalar, the k2 limit recomputed from scratch for
    each new centroid. The oracle the list-speed pass must match bit
    for bit."""

    def q_limit(q_left, total):
        z = 4.0 * math.log(max(total / self.compression, 1.0)) + 21.0
        if q_left <= 0.0:
            return 0.0
        if q_left >= 1.0:
            return 1.0
        odds = q_left / (1.0 - q_left) * math.exp(z / self.compression)
        return odds / (1.0 + odds)

    order = np.argsort(self._means, kind="stable")
    means = self._means[order]
    weights = self._weights[order]
    if self._reverse:
        means = means[::-1]
        weights = weights[::-1]
    self._reverse = not self._reverse
    total = float(weights.sum())

    out_means = [float(means[0])]
    out_weights = [float(weights[0])]
    seen = 0.0
    limit = q_limit(0.0, total)
    for i in range(1, means.shape[0]):
        candidate = out_weights[-1] + float(weights[i])
        if (seen + candidate) / total <= limit:
            out_means[-1] += (
                (float(means[i]) - out_means[-1])
                * float(weights[i]) / candidate
            )
            out_weights[-1] = candidate
        else:
            seen += out_weights[-1]
            limit = q_limit(seen / total, total)
            out_means.append(float(means[i]))
            out_weights.append(float(weights[i]))
    self._means = np.asarray(out_means)
    self._weights = np.asarray(out_weights)
    if self._means.shape[0] > 1 and self._means[0] > self._means[-1]:
        self._means = self._means[::-1].copy()
        self._weights = self._weights[::-1].copy()


class ReferenceDigest(QuantileDigest):
    _merge_sorted = reference_merge_sorted


@st.composite
def digest_streams(draw):
    """1–5,000 values with ties, constant runs and negatives."""
    n = draw(st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.normal(
        draw(st.sampled_from([0.0, -3.0])),
        draw(st.sampled_from([1e-3, 1.0, 1e3])),
        n,
    )
    decimals = draw(st.sampled_from([None, 0, 2]))
    if decimals is not None:  # coarse rounding: many exact ties
        values = np.round(values, decimals)
    start = draw(st.integers(0, n - 1))
    run = draw(st.integers(0, n - start))
    values[start:start + run] = values[start]  # one constant run
    edge = draw(st.lists(
        st.floats(-10.0, 10.0, allow_nan=False), max_size=20
    ))
    return values.tolist() + edge


class TestListSpeedPass:
    """The list-speed merge pass reproduces the numpy-scalar pass bit
    for bit: same operations in the same order, over Python floats."""

    @staticmethod
    def play(cls, values, compression, flushes, more):
        digest = cls(compression=compression)
        other = cls(compression=compression)
        for i, value in enumerate(values):
            digest.add(value)
            if i in flushes:
                digest.quantile(0.5)  # forces a pass mid-stream
            if i % 3 == 0:
                other.add(-2.0 * value)
        digest.merge(other)
        digest = cls.from_dict(digest.to_dict())
        for value in more:
            digest.add(value)
        return digest

    @settings(max_examples=40, deadline=None)
    @given(
        values=digest_streams(),
        compression=st.sampled_from([8, 64, 128, 256]),
        cuts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        n_more=st.integers(0, 600),
    )
    def test_bit_identical_to_numpy_scalar_pass(
        self, values, compression, cuts, n_more
    ):
        flushes = {int(c * (len(values) - 1)) for c in cuts}
        more = values[:n_more][::-1]
        fast = self.play(QuantileDigest, values, compression, flushes, more)
        ref = self.play(ReferenceDigest, values, compression, flushes, more)
        for digest in (fast, ref):
            digest.quantile(0.5)  # drain the buffer through a pass
        assert fast._means.tobytes() == ref._means.tobytes()
        assert fast._weights.tobytes() == ref._weights.tobytes()
        assert (fast.count, fast.total, fast.min, fast.max) == (
            ref.count, ref.total, ref.min, ref.max
        )
        for q in (0.5, 0.95, 0.99):
            assert fast.quantile(q) == ref.quantile(q)


@pytest.fixture(scope="module")
def diurnal_run():
    """Buffered Schemble policy on a >10k-served-query diurnal trace."""
    latencies = [0.010, 0.022, 0.045]
    trace = diurnal_trace(18.0, 140.0, seed=11)
    rng = np.random.default_rng(12)
    n_pool, n_subsets = 512, 1 << len(latencies)
    quality = rng.uniform(0.3, 1.0, size=(n_pool, n_subsets))
    quality[:, 0] = 0.0
    workload = ServingWorkload(
        arrivals=trace.arrivals,
        deadlines=np.full(len(trace), 0.08),
        sample_indices=rng.integers(n_pool, size=len(trace)),
        quality=quality,
    )
    utilities = np.ones((n_pool, n_subsets))
    utilities[:, 0] = 0.0
    policy = BufferedSchedulingPolicy(
        "schemble", DPScheduler(delta=0.05), utilities
    )
    return EnsembleServer(latencies, policy).run(workload)


class TestDiurnalAcceptance:
    """ISSUE 5 acceptance: <= 1% relative error at the report
    percentiles on a 10k-sample diurnal run, holding >= 100x fewer
    values than exact quantile computation retains."""

    @pytest.mark.parametrize("series", ["latency", "slack"])
    def test_within_one_percent_of_exact(self, diurnal_run, series):
        values = (
            diurnal_run.latencies() if series == "latency"
            else diurnal_run.deadline_slack()
        )
        assert values.shape[0] >= 10_000
        digest = fill(values)
        digest.quantile(0.5)  # compress before measuring memory
        assert digest.n_centroids() * 100 <= values.shape[0]
        for q in REPORT_QS:
            assert rel_error(digest, values, q) <= 0.01, f"q={q}"
