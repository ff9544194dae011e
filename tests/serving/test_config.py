"""ServerConfig: validation and from_config."""

import dataclasses

import numpy as np
import pytest

from repro.faults import DowntimeWindow, FaultPlan
from repro.serving.config import ServerConfig
from repro.serving.policies import ImmediateMaskPolicy
from repro.serving.server import EnsembleServer
from repro.serving.workload import ServingWorkload


def policy():
    return ImmediateMaskPolicy("p", 0b1)


def tiny_workload(n=2, deadline=1.0):
    quality = np.ones((4, 2))
    quality[:, 0] = 0.0
    return ServingWorkload(
        arrivals=np.zeros(n),
        deadlines=np.full(n, deadline),
        sample_indices=np.zeros(n, dtype=int),
        quality=quality,
    )


class TestValidation:
    def test_defaults_valid(self):
        config = ServerConfig()
        assert config.allow_rejection
        assert config.max_buffer == 16
        assert config.faults is None
        assert config.degraded_answers

    @pytest.mark.parametrize("bad", [
        {"max_buffer": 0},
        {"overhead_base": -1e-3},
        {"overhead_per_unit": -1e-9},
        {"task_timeout": 0.0},
        {"task_timeout": -1.0},
        {"max_retries": -1},
        {"retry_backoff": -0.1},
        {"overhead_base": np.nan},
        {"task_timeout": np.nan},
        {"retry_backoff": np.nan},
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            ServerConfig(**bad)

    def test_rejects_non_plan_faults(self):
        with pytest.raises(TypeError, match="FaultPlan"):
            ServerConfig(faults={"task_failure_rate": 0.1})

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ServerConfig().max_buffer = 4

    def test_replace_revalidates(self):
        config = ServerConfig()
        assert config.replace(max_buffer=8).max_buffer == 8
        with pytest.raises(ValueError):
            config.replace(max_buffer=0)

    @pytest.mark.parametrize("bad", [
        {"max_buffer": 0},
        {"max_buffer": -3},
        {"overhead_base": -1e-3},
        {"overhead_per_unit": -1e-9},
        {"task_timeout": 0.0},
        {"max_retries": -1},
        {"retry_backoff": -0.1},
        {"overhead_base": np.nan},
        {"task_timeout": np.nan},
        {"retry_backoff": np.nan},
    ])
    def test_replace_matches_constructor_errors(self, bad):
        # replace() goes through dataclasses.replace, which re-runs
        # __post_init__ — the error must be the constructor's, verbatim.
        with pytest.raises(ValueError) as from_init:
            ServerConfig(**bad)
        with pytest.raises(ValueError) as from_replace:
            ServerConfig().replace(**bad)
        assert str(from_replace.value) == str(from_init.value)

    def test_replace_matches_constructor_type_errors(self):
        with pytest.raises(TypeError) as from_init:
            ServerConfig(faults="not-a-plan")
        with pytest.raises(TypeError) as from_replace:
            ServerConfig().replace(faults="not-a-plan")
        assert str(from_replace.value) == str(from_init.value)


class TestFromConfig:
    def test_builds_server_with_config(self):
        config = ServerConfig(allow_rejection=False, max_buffer=4)
        server = EnsembleServer.from_config([0.1], policy(), config)
        assert server.config is config
        assert server.config.allow_rejection is False
        assert server.config.max_buffer == 4

    def test_config_keyword(self):
        server = EnsembleServer(
            [0.1], policy(), config=ServerConfig(max_buffer=2)
        )
        assert server.config.max_buffer == 2

    def test_plan_worker_bounds_checked(self):
        config = ServerConfig(
            faults=FaultPlan(downtime=(DowntimeWindow(3, 0.0, 1.0),))
        )
        with pytest.raises(ValueError, match="worker 3"):
            EnsembleServer.from_config([0.1], policy(), config)

    def test_runs(self):
        config = ServerConfig()
        server = EnsembleServer.from_config([0.1], policy(), config)
        result = server.run(tiny_workload())
        assert len(result) == 2
