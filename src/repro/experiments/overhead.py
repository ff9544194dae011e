"""Exp-5 / Fig. 13: computational and memory overhead of Schemble.

Two views are reported: (a) the serving-cost model's predictor
profile (latency and memory relative to the ensemble, derived from the
paper's published ratios) and (b) *measured* numbers from this repo's
numpy substrate — wall-clock per-query inference time and parameter
counts of the predictor versus the base models.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.difficulty.predictor import predictor_profile
from repro.experiments.setups import TaskSetup


def profiled_overhead(setup: TaskSetup) -> Dict[str, float]:
    """Cost-model view: predictor profile vs ensemble profile."""
    profile = predictor_profile(setup.ensemble)
    return {
        "predictor_latency": profile.latency,
        "ensemble_latency": setup.ensemble.total_latency(),
        "latency_fraction": profile.latency / setup.ensemble.total_latency(),
        "predictor_memory": profile.memory,
        "ensemble_memory": setup.ensemble.total_memory(),
        "memory_fraction": profile.memory / setup.ensemble.total_memory(),
    }


def measured_overhead(
    setup: TaskSetup, batch: int = 256, repeats: int = 3
) -> Dict[str, float]:
    """Substrate view: measured runtime + parameter counts.

    The ratio of predictor to base-model cost is the quantity Fig. 13
    makes an argument about; on the numpy substrate it is measured the
    same way the paper measured it on the P100 — run both on the same
    batch and compare.
    """
    if not setup.schemble.use_predictor:
        raise ValueError("setup's Schemble pipeline has no predictor")
    features = setup.pool.features[:batch]

    def clock(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    predictor = setup.schemble.predictor
    predictor_time = clock(lambda: predictor.predict(features))
    member_times = {
        model.name: clock(lambda model=model: model.predict(features))
        for model in setup.ensemble.models
    }
    ensemble_time = sum(member_times.values())

    predictor_params = predictor.num_parameters()
    member_params = {
        model.name: model.predictor.num_parameters()
        if hasattr(model.predictor, "num_parameters")
        else 0
        for model in setup.ensemble.models
    }
    total_params = sum(member_params.values())
    return {
        "predictor_time": predictor_time,
        "ensemble_time": ensemble_time,
        "time_fraction": predictor_time / max(ensemble_time, 1e-12),
        "predictor_params": float(predictor_params),
        "ensemble_params": float(total_params),
        "param_fraction": predictor_params / max(total_params, 1),
    }
