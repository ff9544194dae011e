"""Property test: admission control never over-commits a shard.

The fleet's contract is that overload is refused at the door: a query
is only ever admitted onto a shard whose estimated backlog is strictly
below the queue limit in force at admission time. The ``route`` span
records that backlog, so the property is directly observable from the
trace — across random workloads, fleet shapes, all three routing
policies, and static as well as controlled fleets. A controlled fleet
moves the limit mid-run; its ``admission_change`` spans record each new
limit.
"""

import bisect

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import ControlConfig
from repro.fleet import FleetConfig, FleetServer
from repro.obs import spans as sp
from repro.obs.slo import SLOConfig
from repro.obs.tracer import RecordingTracer
from repro.scheduling.greedy import GreedyScheduler
from repro.serving.config import ServerConfig
from repro.serving.policies import BufferedSchedulingPolicy
from repro.serving.workload import ServingWorkload

LATENCIES = [0.004, 0.009, 0.018]


def build_policy(seed):
    rng = np.random.default_rng(seed)
    n_pool, m = 32, len(LATENCIES)
    quality = np.zeros((n_pool, 2 ** m))
    quality[:, 1:] = rng.uniform(0.2, 1.0, (n_pool, 2 ** m - 1))
    scores = rng.uniform(0, 1, n_pool)
    return BufferedSchedulingPolicy(
        "p", GreedyScheduler(order="edf"), quality, scores=scores
    ), quality


@st.composite
def fleet_runs(draw):
    seed = draw(st.integers(0, 10 ** 6))
    n = draw(st.integers(1, 60))
    n_shards = draw(st.integers(1, 4))
    queue_limit = draw(st.integers(1, 4))
    router = draw(st.sampled_from(("hash", "power_of_two", "score_aware")))
    # A short interval lets the controller tighten and relax admission
    # within a sub-second workload.
    control = draw(st.sampled_from((None, ControlConfig(
        interval=0.05, warmup=0.05, cooldown=0.1,
        slo=SLOConfig(windows=(0.2, 1.0), alert_window=0.2, min_events=3),
    ))))
    # Bursty by construction: tiny gaps force the fluid backlog to fill.
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.0, draw(st.floats(0.0005, 0.02)), n)
    arrivals = np.cumsum(gaps)
    deadline = draw(st.floats(0.01, 0.2))
    return seed, arrivals, deadline, n_shards, queue_limit, router, control


@given(fleet_runs())
@settings(max_examples=60, deadline=None)
def test_never_admits_beyond_queue_limit(case):
    seed, arrivals, deadline, n_shards, queue_limit, router, control = case
    policy, quality = build_policy(seed)
    rng = np.random.default_rng(seed + 1)
    workload = ServingWorkload(
        arrivals=arrivals,
        deadlines=np.full(arrivals.shape[0], deadline),
        sample_indices=rng.integers(quality.shape[0], size=arrivals.shape[0]),
        quality=quality,
    )
    tracer = RecordingTracer()
    fleet = FleetServer.from_config(
        LATENCIES, policy,
        FleetConfig.uniform(
            n_shards, ServerConfig(), router=router,
            queue_limit=queue_limit, seed=seed, control=control,
        ),
        tracer=tracer,
    )
    result = fleet.run(workload)

    routes = [s for s in tracer.spans if s.kind == sp.ROUTE]
    # The limit in force at time t is the last admission change at or
    # before t. Look it up by time, not stream order: a route at
    # exactly an epoch boundary was admitted under the limit set at
    # that boundary, yet sorts before the boundary's control span.
    changes = [s for s in tracer.spans if s.kind == sp.ADMISSION_CHANGE]
    change_times = [s.time for s in changes]
    # Every admitted query saw a shard with spare capacity...
    for span in routes:
        k = bisect.bisect_right(change_times, span.time)
        limit = changes[k - 1].attrs["queue_limit"] if k else queue_limit
        assert span.attrs["backlog"] < limit
    # ...and nothing was lost: routed + shed covers the workload.
    assert len(routes) + result.n_shed == workload.n_queries
    assert (result.assignments >= 0).sum() == len(routes)
