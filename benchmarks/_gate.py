"""Regression gates shared by the ``bench_*.py`` scripts.

Each bench script writes its figures to a committed
``benchmarks/results/BENCH_*.json`` and gates a fresh run against the
committed one, which it must read *before* the run overwrites it. The
pieces those gates share live here; each script keeps its own factors
and bounds and passes them in:

* :func:`read_committed` — the committed results of a script;
* :func:`grid_regressions` — per grid point, a speedup floor or a
  ratio ceiling (``bench_sched_throughput.py``,
  ``bench_policy_distill.py``);
* :func:`growth_regressions` — overhead and slowdown ratios that grew
  past a factor of their committed values (``bench_obs_overhead.py``);
* :func:`separation_regressions` — the fleet bench's same-mode
  separation floor (``bench_fleet.py``);
* :func:`paired_ratio` and :data:`NOISE_FLOOR` — the statistic and the
  absolute floor behind the tight overhead gates.
"""

import json

#: Absolute floor of the NullTracer overhead gate: back-to-back
#: interleaved min-of-4 runs on a contended CI machine still swing
#: roughly -3%..+3%, so a 2.5% floor flakes on noise alone.
NOISE_FLOOR = 0.04


def read_committed(path):
    """The committed results at ``path`` (None when there are none)."""
    return json.loads(path.read_text()) if path.exists() else None


def paired_ratio(samples, numer, denom):
    """Median of the per-round ``numer/denom`` ratios.

    The two variants run inside the same round (seconds apart, often
    back to back), so a slow machine phase inflates both timings of a
    pair alike and mostly cancels in the ratio — unlike
    ``min(numer)/min(denom)``, whose minima can land in different
    phases and carry the full phase delta. The median across rounds
    then discards pairs a phase boundary split. This is the statistic
    behind the tight (5%) overhead gates."""
    ratios = sorted(
        n / d for n, d in zip(samples[numer], samples[denom])
    )
    mid = len(ratios) // 2
    if len(ratios) % 2:
        return ratios[mid]
    return (ratios[mid - 1] + ratios[mid]) / 2.0


def grid_regressions(points, committed, section, metric, factor,
                     committed_key, lower_is_better=False):
    """Grid points whose ``metric`` moved ``factor``-fold the wrong way.

    Points pair with the committed run's ``section`` points on
    ``(n_queries, n_models)``; a point the committed run lacks is not
    judged. A higher-is-better metric fails below its committed value
    over ``factor`` (its ``floor``), a lower-is-better one above its
    committed value times ``factor`` (its ``ceiling``). Each failure
    records the point, its value, the committed value under
    ``committed_key`` and the bound. Returns ``(failures, ok)``.
    """
    if not committed:
        return [], True
    baseline = {
        (point["n_queries"], point["n_models"]): point[metric]
        for point in committed.get(section, [])
    }
    failures = []
    for point in points:
        key = (point["n_queries"], point["n_models"])
        if key not in baseline:
            continue
        if lower_is_better:
            bound_key, bound = "ceiling", baseline[key] * factor
            failed = point[metric] > bound
        else:
            bound_key, bound = "floor", baseline[key] / factor
            failed = point[metric] < bound
        if failed:
            failures.append({
                "n_queries": key[0],
                "n_models": key[1],
                metric: point[metric],
                committed_key: baseline[key],
                bound_key: bound,
            })
    return failures, not failures


def growth_regressions(stats, baseline, factor, floors):
    """Metrics of ``stats`` that grew past ``factor`` times ``baseline``.

    ``floors`` maps each gated metric, in report order, to an absolute
    floor its value must also exceed to fail, or None: with a
    committed figure near zero, 2x of almost-nothing is still almost
    nothing. A metric missing on either side is not judged. Returns
    ``(failures, ok)``.
    """
    failures = []
    for metric, floor in floors.items():
        value = stats.get(metric)
        committed = baseline.get(metric)
        if value is None or committed is None:
            continue
        allowed = factor * committed
        if floor is not None:
            allowed = max(floor, allowed)
        if value > allowed:
            failures.append({
                "metric": metric,
                "value": value,
                "committed": committed,
                "allowed": allowed,
            })
    return failures, not failures


def separation_regressions(what, current, committed, quick, factor):
    """A separation must not fall below 1/``factor`` of the committed
    run's, when that run used the same mode (``--quick`` or full)."""
    if not committed or committed.get("quick") != quick:
        return []
    baseline = committed.get("separation")
    if not baseline:
        return []
    if current < baseline / factor:
        return [
            f"regression: {what} separation {current:.1f}x fell below "
            f"1/{factor:g} of the committed {baseline:.1f}x"
        ]
    return []
