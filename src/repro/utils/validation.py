"""Argument validation helpers shared across the library.

These raise early with precise messages instead of letting numpy
broadcasting errors surface deep inside a simulation run.
"""

from __future__ import annotations

import numpy as np


def check_positive(name: str, value: float, allow_zero: bool = False) -> float:
    """Validate that ``value`` is positive (or non-negative).

    The tests are negated comparisons, so NaN, which compares false
    with everything, is refused too."""
    value = float(value)
    if allow_zero:
        if not value >= 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    elif not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_latencies(latencies) -> np.ndarray:
    """Validate a per-model inference-time vector and return it as a
    float array: non-empty, 1-d, every entry finite and positive."""
    latencies = np.asarray(latencies, dtype=float)
    if (
        latencies.ndim != 1
        or latencies.size == 0
        or not np.all(np.isfinite(latencies) & (latencies > 0))
    ):
        raise ValueError(
            "latencies must be a non-empty 1-d array of finite positives"
        )
    return latencies


def check_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    inclusive: bool = True,
) -> float:
    """Validate that ``value`` lies in ``[low, high]`` (or ``(low, high)``)."""
    value = float(value)
    if inclusive:
        ok = low <= value <= high
    else:
        ok = low < value < high
    if not ok:
        bounds = f"[{low}, {high}]" if inclusive else f"({low}, {high})"
        raise ValueError(f"{name} must be in {bounds}, got {value}")
    return value


def check_matrix(name: str, array: np.ndarray, ndim: int = 2) -> np.ndarray:
    """Validate dimensionality and finiteness of a numeric array."""
    array = np.asarray(array, dtype=float)
    if array.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {array.shape}")
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains non-finite values")
    return array


def check_probabilities(name: str, probs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Validate that ``probs`` are non-negative and sum to one along ``axis``."""
    probs = np.asarray(probs, dtype=float)
    if np.any(probs < -1e-9):
        raise ValueError(f"{name} contains negative probabilities")
    totals = probs.sum(axis=axis)
    if not np.allclose(totals, 1.0, atol=1e-6):
        raise ValueError(
            f"{name} rows must sum to 1 (max deviation "
            f"{np.max(np.abs(totals - 1.0)):.3g})"
        )
    return probs
