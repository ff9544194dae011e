"""Model-subset bitmask conventions.

A subset of an ``m``-model ensemble is an ``int`` bitmask in
``[0, 2**m)``; bit ``k`` set means base model ``k`` is executed. Mask 0
(the empty set) means the query is skipped/rejected. Every module that
talks about model combinations — the profiler's utility tables, the DP
table, the serving policies — shares this encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class MaskTables:
    """Precomputed per-mask structure shared by every scheduler.

    The DP, greedy and brute-force schedulers all need "which models does
    mask ``j`` contain" in bulk; deriving it privately per call was both
    a hot-path cost and three chances to diverge. ``membership`` is the
    canonical boolean incidence matrix; ``members`` keeps the classic
    index-list view for code that walks one mask at a time.

    Attributes:
        n_models: Ensemble size ``m``.
        membership: Bool array ``(2**m, n_models)``; ``membership[j, k]``
            iff model ``k`` is in mask ``j``.
        members: Tuple of per-mask model-index tuples (row ``j`` lists
            the set bits of ``j`` in ascending order).
        sizes: Int array ``(2**m,)`` of popcounts.
    """

    n_models: int
    membership: np.ndarray
    members: Tuple[Tuple[int, ...], ...]
    sizes: np.ndarray

    @property
    def n_masks(self) -> int:
        return 1 << self.n_models


#: Distinct ensemble sizes the process-wide table cache keeps. Tables
#: for an ``m``-model ensemble are ``O(m * 2**m)``; a long fleet run
#: that cycles through many deployments must not grow memory without
#: bound, so the cache is LRU-bounded (a 12-model table is ~50 KB and
#: real deployments use a handful of sizes, so 32 never evicts in
#: practice — the bound is a safety rail, not a tuning knob).
MASK_TABLES_CACHE_SIZE = 32


@lru_cache(maxsize=MASK_TABLES_CACHE_SIZE)
def mask_tables(n_models: int) -> MaskTables:
    """The (cached) :class:`MaskTables` for an ``n_models`` ensemble."""
    if n_models < 1:
        raise ValueError(f"n_models must be >= 1, got {n_models}")
    n_masks = 1 << n_models
    masks = np.arange(n_masks, dtype=np.int64)
    membership = ((masks[:, None] >> np.arange(n_models)[None, :]) & 1) == 1
    membership.setflags(write=False)
    members = tuple(
        tuple(int(k) for k in np.nonzero(membership[j])[0])
        for j in range(n_masks)
    )
    sizes = membership.sum(axis=1)
    sizes.setflags(write=False)
    return MaskTables(
        n_models=n_models, membership=membership, members=members, sizes=sizes
    )


def mask_tables_cache_info():
    """``functools.lru_cache`` statistics of the shared table cache —
    hits/misses/currsize/maxsize, for memory tracing on long
    multi-ensemble runs."""
    return mask_tables.cache_info()


def iter_masks(n_models: int, include_empty: bool = False) -> Iterator[int]:
    """Yield every subset mask for ``n_models`` base models."""
    if n_models < 1:
        raise ValueError(f"n_models must be >= 1, got {n_models}")
    start = 0 if include_empty else 1
    yield from range(start, 1 << n_models)


def mask_members(mask: int) -> List[int]:
    """Model indices contained in ``mask``."""
    if mask < 0:
        raise ValueError(f"mask must be non-negative, got {mask}")
    members = []
    index = 0
    while mask:
        if mask & 1:
            members.append(index)
        mask >>= 1
        index += 1
    return members


def mask_size(mask: int) -> int:
    """Number of models in ``mask``."""
    if mask < 0:
        raise ValueError(f"mask must be non-negative, got {mask}")
    return bin(mask).count("1")


def mask_latency(mask: int, latencies: Sequence[float]) -> float:
    """Synchronous latency of executing ``mask`` on idle models: the
    slowest member (models run in parallel)."""
    members = mask_members(mask)
    if any(k >= len(latencies) for k in members):
        raise ValueError(
            f"mask {mask:b} references model beyond {len(latencies)} models"
        )
    if not members:
        return 0.0
    return max(latencies[k] for k in members)


def mask_contains(mask: int, model_index: int) -> bool:
    """Whether ``mask`` includes ``model_index``."""
    if model_index < 0:
        raise ValueError(f"model_index must be >= 0, got {model_index}")
    return bool((mask >> model_index) & 1)
