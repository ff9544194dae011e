"""The server's trusted scheduling instances.

The serving loop builds every :class:`SchedulingInstance` with
:meth:`SchedulingInstance.trusted`, which checks nothing, so the server
must itself guarantee what the public constructor checks: a utility
row of the wrong width is refused when its request is built, and every
instance a served run hands its scheduler passes the public
constructor.
"""

import numpy as np
import pytest

from repro.faults import DowntimeWindow, FaultPlan
from repro.scheduling.dp import DPScheduler
from repro.scheduling.greedy import GreedyScheduler
from repro.scheduling.problem import SchedulingInstance
from repro.serving.config import ServerConfig
from repro.serving.policies import BufferedSchedulingPolicy
from repro.serving.server import EnsembleServer, WorkerSpec
from repro.serving.workload import ServingWorkload

LATENCIES = [0.02, 0.05, 0.09]
N_POOL = 16


def make_policy(scheduler, width=1 << len(LATENCIES), seed=0):
    rng = np.random.default_rng(seed)
    utilities = np.zeros((N_POOL, width))
    utilities[:, 1:] = rng.uniform(0.2, 1.0, (N_POOL, width - 1))
    return BufferedSchedulingPolicy(
        "p", scheduler, utilities, scores=rng.uniform(0, 1, N_POOL),
    )


def make_workload(n=300, rate=40.0, deadline=0.25, seed=1):
    rng = np.random.default_rng(seed)
    quality = np.ones((N_POOL, 1 << len(LATENCIES)))
    quality[:, 0] = 0.0
    return ServingWorkload(
        arrivals=np.sort(rng.uniform(0, n / rate, n)),
        deadlines=np.full(n, deadline),
        sample_indices=rng.integers(N_POOL, size=n),
        quality=quality,
    )


class RecheckingScheduler:
    """Checks each instance as the public constructor would, then
    delegates to the wrapped scheduler."""

    def __init__(self, inner):
        self.inner = inner
        self.times = []
        self.saw_inf = False

    def schedule(self, instance):
        for array in (instance.latencies, instance.busy_until):
            assert isinstance(array, np.ndarray)
            assert array.dtype == np.float64
        SchedulingInstance(
            instance.queries, instance.latencies, instance.busy_until,
            instance.now,
        )
        self.times.append(instance.now)
        self.saw_inf |= bool(np.isinf(instance.busy_until).any())
        return self.inner.schedule(instance)


class TestPublicConstructor:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_non_finite_latencies(self, bad):
        with pytest.raises(ValueError, match="latencies must be finite"):
            SchedulingInstance([], np.array([bad, 0.1]), np.zeros(2))


class TestUtilityWidth:
    @pytest.mark.parametrize("width", [4, 16])
    def test_wrong_width_is_refused(self, width):
        server = EnsembleServer(
            LATENCIES, make_policy(GreedyScheduler(), width=width)
        )
        with pytest.raises(
            ValueError, match=rf"query \d+ has {width} utilities, expected 8"
        ):
            server.run(make_workload(n=20))


class TestEveryInstanceIsValid:
    @pytest.mark.parametrize("inner", [
        GreedyScheduler("edf"), DPScheduler(delta=0.05),
    ], ids=["greedy", "dp"])
    @pytest.mark.parametrize("undeployed", [False, True],
                             ids=["full", "model2_undeployed"])
    def test_served_run(self, inner, undeployed):
        """A crash window, a replica set added mid-run and a cheap mask
        switched on and off; with model 2 undeployed, ``busy_until``
        holds ``inf``. No instance may be refused."""
        workers = None
        if undeployed:
            workers = [WorkerSpec(k, LATENCIES[k]) for k in (0, 1)]
        scheduler = RecheckingScheduler(inner)
        server = EnsembleServer(
            LATENCIES, make_policy(scheduler), workers,
            config=ServerConfig(faults=FaultPlan(
                downtime=(DowntimeWindow(0, 1.0, 2.0),),
            )),
        )
        workload = make_workload()
        session = server.session()
        actions = {
            2.5: lambda now: server.add_replica_set(now, warmup=0.2),
            4.0: lambda now: server.set_cheap_mask(0b001),
            5.5: lambda now: server.set_cheap_mask(None),
        }
        qi, t = 0, 0.5
        while qi < workload.n_queries or session.pending:
            while qi < workload.n_queries and workload.arrivals[qi] < t:
                session.offer(
                    float(workload.arrivals[qi]),
                    float(workload.deadlines[qi]),
                    int(workload.sample_indices[qi]),
                )
                qi += 1
            session.advance(t)
            if t in actions:
                actions[t](t)
            t += 0.5
        result = session.finish()

        assert len(scheduler.times) == result.scheduler_invocations
        assert any(1.0 <= now < 2.0 for now in scheduler.times)
        assert scheduler.saw_inf == undeployed
        assert server.n_workers == 2 * len(workers or LATENCIES)
        assert any(r.degraded for r in result.records)
