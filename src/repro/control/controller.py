"""The deterministic decision core of the SLO control loop.

:class:`Controller` is a pure state machine over the live
:class:`~repro.obs.slo.SLOMonitor` signal: each :meth:`Controller.tick`
polls the monitor (closing episodes that went stale over an idle gap),
reads the alert-window burn rate, and returns the list of
:class:`ControlAction` decisions for this instant. It never touches
servers itself — the fleet applies the actions — so decisions are unit
testable and replay byte-identically: no RNG, no wall clock, and the
only ordering inputs are the seeded shard rotation and the monitor's
event-ordered state.

Two signals drive two different actuation speeds:

* the **episode** (hysteresis built into the monitor's
  breach/recover thresholds) gates the reversible, instant knobs —
  quality degradation and admission tightening flip exactly once per
  episode, so a burn rate hovering between ``recover_burn`` and
  ``breach_burn`` cannot flap them;
* the **burn rate** itself drives capacity, rate-limited by
  ``cooldown`` so warming replicas land before more are added, and
  guarded by the monitor's ``min_events`` so a near-empty window
  never triggers provisioning.

Scale-ups target shards by seeded rotation; scale-downs retire in
LIFO order, so capacity unwinds exactly as it was built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.control.config import ControlConfig
from repro.obs import spans as sp
from repro.obs.slo import SLOMonitor

__all__ = ["ControlAction", "ControlLog", "Controller"]


@dataclass(frozen=True)
class ControlAction:
    """One controller decision.

    Attributes:
        time: Simulated time of the decision (an epoch boundary).
        kind: One of the control span kinds (``scale_up`` /
            ``scale_down`` / ``degrade`` / ``restore`` /
            ``admission_change``).
        shard: Target shard for scaling actions, ``-1`` for
            fleet-wide actions.
        level: Extra replica sets active after the action (scaling) or
            0 (others).
        burn: Alert-window burn rate that triggered the decision.
        queue_limit: Admission limit in effect after an
            ``admission_change``; 0 otherwise.
    """

    time: float
    kind: str
    shard: int = -1
    level: int = 0
    burn: float = 0.0
    queue_limit: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "kind": self.kind,
            "shard": self.shard,
            "level": self.level,
            "burn": self.burn,
            "queue_limit": self.queue_limit,
        }


class ControlLog:
    """Ordered record of every action a controller took in one run.

    The canonical serialization (:meth:`dumps`) is the determinism
    contract: same trace + same seed ⇒ byte-identical output (asserted
    by ``benchmarks/bench_fleet.py``).
    """

    def __init__(self):
        self.actions: List[ControlAction] = []

    def append(self, action: ControlAction) -> None:
        self.actions.append(action)

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self) -> Iterator[ControlAction]:
        return iter(self.actions)

    def counts(self) -> Dict[str, int]:
        """Actions per kind (for reports and quick assertions)."""
        out: Dict[str, int] = {}
        for action in self.actions:
            out[action.kind] = out.get(action.kind, 0) + 1
        return out

    def slice(self, start: float, end: float) -> List[Dict[str, object]]:
        """Actions with ``start <= time <= end`` as serialized dicts —
        the control-log window an incident bundle embeds."""
        return [
            action.to_dict()
            for action in self.actions
            if start <= action.time <= end
        ]

    def dumps(self) -> str:
        """Canonical JSON-lines serialization (sorted keys, repr
        floats) — byte-comparable across runs."""
        return "\n".join(
            json.dumps(action.to_dict(), sort_keys=True)
            for action in self.actions
        )


class Controller:
    """Turns monitor state into scale/degrade/admission decisions.

    Args:
        config: Frozen :class:`~repro.control.config.ControlConfig`.
        monitor: The live :class:`~repro.obs.slo.SLOMonitor` fed from
            the fleet's merged outcome stream; the controller polls it
            each tick and reads its episode list and alert window.
        n_shards: Fleet size (scale-up rotation modulus).
    """

    def __init__(
        self, config: ControlConfig, monitor: SLOMonitor, n_shards: int
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.config = config
        self.monitor = monitor
        self.n_shards = n_shards
        self.log = ControlLog()
        self.degraded = False
        self.tightened = False
        self._rotation = config.seed % n_shards
        self._extra: List[int] = []  # shards holding extra sets (LIFO)
        self._last_scale: Optional[float] = None

    @property
    def level(self) -> int:
        """Extra replica sets currently active."""
        return len(self._extra)

    @property
    def settled(self) -> bool:
        """True when every actuation has been unwound (full quality,
        baseline capacity, default admission) — the fleet drain loop
        runs extra epochs until the controller settles or times out."""
        return not (self.degraded or self.tightened or self._extra)

    def tick(self, now: float) -> List[ControlAction]:
        """One decision round at epoch boundary ``now``."""
        config = self.config
        monitor = self.monitor
        monitor.poll(now)
        burn = monitor.alert_burn(now)
        episode = monitor.episodes[-1] if monitor.episodes else None
        breached = episode is not None and episode.open
        actions: List[ControlAction] = []

        # Episode-gated knobs: exactly one flip per episode edge.
        if breached:
            if config.degrade_on_breach and not self.degraded:
                self.degraded = True
                actions.append(
                    ControlAction(now, sp.DEGRADE_MODE, burn=burn)
                )
            if config.tighten_factor < 1.0 and not self.tightened:
                self.tightened = True
                actions.append(ControlAction(
                    now, sp.ADMISSION_CHANGE, burn=burn, queue_limit=-1,
                ))
        else:
            if self.degraded:
                self.degraded = False
                actions.append(ControlAction(now, sp.RESTORE, burn=burn))
            if self.tightened:
                self.tightened = False
                actions.append(ControlAction(
                    now, sp.ADMISSION_CHANGE, burn=burn, queue_limit=0,
                ))

        # Burn-driven capacity, cooldown-limited. Scale-ups need the
        # detector's evidence floor (a near-empty window proves
        # nothing); scale-downs don't (an empty window after a drain
        # is exactly when capacity should unwind).
        cooled = (
            self._last_scale is None
            or now - self._last_scale >= config.cooldown
        )
        if (
            cooled
            and burn >= config.scale_up_burn
            and len(self._extra) < config.max_extra_replicas
            and monitor.alert_events(now) >= monitor.config.min_events
        ):
            shard = self._rotation % self.n_shards
            self._rotation += 1
            self._extra.append(shard)
            self._last_scale = now
            actions.append(ControlAction(
                now, sp.SCALE_UP, shard=shard,
                level=len(self._extra), burn=burn,
            ))
        elif (
            cooled
            and not breached
            and burn <= config.scale_down_burn
            and self._extra
        ):
            shard = self._extra.pop()
            self._last_scale = now
            actions.append(ControlAction(
                now, sp.SCALE_DOWN, shard=shard,
                level=len(self._extra), burn=burn,
            ))

        for action in actions:
            self.log.append(action)
        return actions
