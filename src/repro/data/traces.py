"""Query arrival traces and deadline assignment.

The paper evaluates on (1) a recorded one-day trace from a production
Q&A system whose load varies ~30x between night and the midday burst
(Fig. 1a) and (2) Poisson traffic with constant rate. ``diurnal_trace``
reproduces the former's shape with a non-homogeneous Poisson process;
``poisson_trace`` the latter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_positive

# Hourly relative load of the paper's one-day Q&A trace: quiet overnight,
# ramp at 8-10h, heavy plateau with a midday spike, medium evening.
DIURNAL_PROFILE = np.array(
    [
        0.6, 0.5, 0.4, 0.4, 0.4, 0.5, 0.8, 1.0,   # 0-8h: light
        2.0, 5.0, 12.0, 18.0, 22.0, 20.0, 24.0, 21.0,  # 8-16h: burst
        16.0, 12.0, 7.0, 5.0, 3.5, 2.5, 1.5, 1.0,  # 16-24h: cool-down
    ]
)


@dataclass
class ArrivalTrace:
    """Arrival times (seconds, sorted ascending) plus trace metadata.

    Sorted input is held as given (no copy); anything else is sorted
    into a new array.
    """

    arrivals: np.ndarray
    duration: float
    name: str = "trace"

    def __post_init__(self):
        arrivals = np.asarray(self.arrivals, dtype=float)
        if arrivals.size > 1 and (arrivals[1:] < arrivals[:-1]).any():
            arrivals = np.sort(arrivals)
        self.arrivals = arrivals
        if self.arrivals.size and self.arrivals[0] < 0:
            raise ValueError("arrival times must be non-negative")
        self.duration = check_positive("duration", self.duration)

    def __len__(self) -> int:
        return int(self.arrivals.shape[0])

    def rate_per_bin(self, bin_width: float) -> np.ndarray:
        """Arrival counts per time bin (for load plots like Fig. 1a)."""
        check_positive("bin_width", bin_width)
        n_bins = int(np.ceil(self.duration / bin_width))
        edges = np.arange(n_bins + 1) * bin_width
        counts, _ = np.histogram(self.arrivals, bins=edges)
        return counts.astype(float)


def poisson_trace(
    rate: float,
    duration: float,
    seed: SeedLike = None,
    name: str = "poisson",
) -> ArrivalTrace:
    """Homogeneous Poisson arrivals at ``rate`` per second for ``duration``."""
    check_positive("rate", rate)
    check_positive("duration", duration)
    rng = as_rng(seed)
    expected = rate * duration
    count = rng.poisson(expected)
    arrivals = rng.uniform(0.0, duration, size=count)
    arrivals.sort()
    return ArrivalTrace(arrivals=arrivals, duration=duration, name=name)


def diurnal_trace(
    base_rate: float,
    duration: float,
    profile: Optional[Sequence[float]] = None,
    seed: SeedLike = None,
    name: str = "one_day",
) -> ArrivalTrace:
    """Non-homogeneous Poisson arrivals following a (scaled) daily profile.

    Args:
        base_rate: Arrivals per second when the profile value is 1.
        duration: Trace length in seconds; the profile is stretched to
            cover it (so tests can simulate a compressed "day").
        profile: Relative load per equal time segment; defaults to the
            paper-shaped :data:`DIURNAL_PROFILE`.
        seed: RNG seed.
    """
    check_positive("base_rate", base_rate)
    check_positive("duration", duration)
    profile_arr = np.asarray(
        DIURNAL_PROFILE if profile is None else profile, dtype=float
    )
    if profile_arr.ndim != 1 or profile_arr.size == 0:
        raise ValueError("profile must be a non-empty 1-d sequence")
    if np.any(profile_arr < 0):
        raise ValueError("profile values must be non-negative")

    rng = as_rng(seed)
    peak = float(profile_arr.max())
    if peak == 0:
        return ArrivalTrace(np.empty(0), duration, name=name)

    # Thinning: draw from a homogeneous process at the peak rate, accept
    # with probability rate(t)/peak_rate.
    candidates = poisson_trace(base_rate * peak, duration, seed=rng).arrivals
    segment = np.minimum(
        (candidates / duration * profile_arr.size).astype(int),
        profile_arr.size - 1,
    )
    accept = rng.random(candidates.shape[0]) < profile_arr[segment] / peak
    return ArrivalTrace(candidates[accept], duration, name=name)


def mmpp_trace(
    rates: Sequence[float],
    mean_dwell: float,
    duration: float,
    seed: SeedLike = None,
    name: str = "mmpp",
) -> ArrivalTrace:
    """Markov-modulated Poisson arrivals.

    A hidden state switches between ``rates`` with exponential dwell
    times of mean ``mean_dwell``; arrivals are Poisson at the current
    state's rate. This is a standard model for bursty service traffic
    beyond fixed daily profiles — bursts arrive at random times, which
    stresses schedulers that (implicitly) assume a predictable load.
    """
    rates_arr = np.asarray(rates, dtype=float)
    if rates_arr.ndim != 1 or rates_arr.size == 0:
        raise ValueError("rates must be a non-empty 1-d sequence")
    if np.any(rates_arr < 0):
        raise ValueError("rates must be non-negative")
    check_positive("mean_dwell", mean_dwell)
    check_positive("duration", duration)

    rng = as_rng(seed)
    arrivals = []
    t = 0.0
    state = int(rng.integers(rates_arr.size))
    while t < duration:
        dwell = float(rng.exponential(mean_dwell))
        end = min(t + dwell, duration)
        rate = rates_arr[state]
        if rate > 0:
            count = rng.poisson(rate * (end - t))
            arrivals.append(rng.uniform(t, end, size=count))
        t = end
        # Jump to a different state (uniform among the others).
        if rates_arr.size > 1:
            offset = int(rng.integers(1, rates_arr.size))
            state = (state + offset) % rates_arr.size
    stacked = (
        np.concatenate(arrivals) if arrivals else np.empty(0, dtype=float)
    )
    return ArrivalTrace(arrivals=stacked, duration=duration, name=name)


def constant_deadlines(n: int, deadline: float) -> np.ndarray:
    """Relative deadlines: every query gets the same budget (text matching)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    check_positive("deadline", deadline)
    return np.full(n, float(deadline))


def camera_deadlines(
    camera_ids: np.ndarray,
    low: float,
    high: float,
    seed: SeedLike = None,
) -> np.ndarray:
    """Per-camera relative deadlines drawn uniformly (vehicle counting).

    Each camera (location priority) gets one deadline sampled from
    ``U[low, high]``; all queries from that camera share it, matching the
    paper's "deadlines for each camera are sampled randomly from the
    uniform distribution".
    """
    check_positive("low", low)
    if high < low:
        raise ValueError(f"high must be >= low, got [{low}, {high}]")
    camera_ids = np.asarray(camera_ids, dtype=int)
    rng = as_rng(seed)
    n_cameras = int(camera_ids.max()) + 1 if camera_ids.size else 0
    per_camera = rng.uniform(low, high, size=max(n_cameras, 1))
    return per_camera[camera_ids]
