"""Scheduler decision explainability: why did this query get that mask?

Schemble's scheduler is the one component whose output is hard to audit
after the fact: the DP collapses a whole buffer of deadlines, scores
and busy workers into one mask per query, and the span stream only
records the outcome. An opt-in :class:`DecisionLog` captures, at
schedule time inside ``EnsembleServer``, one :class:`DecisionRecord`
per planned query: the inputs the scheduler saw (discrepancy score,
buffer occupancy, per-model busy horizon), what it explored (DP
frontier size and reward cells, candidate masks that were feasible for
this query), what it chose, and what it predicted — then backfills the
realized finish time and slack when the query actually completes, so
prediction error is a first-class queryable quantity.

The log is opt-in and zero-cost when absent: the server guards every
capture site on ``explain is not None`` and the DP's frontier-stats
hook is off unless the log enables it, so the default path stays
bit-identical (re-guarded by ``benchmarks/bench_obs_overhead.py``).

Records export as JSONL (one decision per line) and load back for the
``python -m repro explain <query-id>`` CLI command.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = ["DecisionRecord", "DecisionLog", "format_decision"]


@dataclass
class DecisionRecord:
    """One explained scheduling decision for one query.

    A query that is requeued and re-planned gets one record per
    planning round; the last record is the one that dispatched (or
    finally rejected) it.

    Attributes:
        query_id: The query this decision concerns.
        decided_at: Simulated time the scheduler ran over the buffer.
        committed_at: Simulated time the plan committed (decision time
            plus modeled scheduling overhead); for immediate-mode and
            fast-path decisions this equals ``decided_at``.
        action: ``"dispatch"`` | ``"reject"`` | ``"requeue"`` |
            ``"fallback"`` (forced fastest model) | ``"fast_path"`` |
            ``"immediate"``.
        chosen_mask: Execution mask the query ended up with (0 when
            rejected).
        score: Difficulty/discrepancy score the policy predicted for
            the query's sample (NaN when the policy has none).
        deadline: Absolute deadline of the query.
        batch_size: Queries in the scheduler's buffer snapshot.
        buffer_depth: Queries left waiting after the snapshot was taken.
        busy_until: Per-model committed work (seconds of backlog) the
            scheduler saw at decision time.
        frontier_size: DP Pareto-frontier entries after the final
            level (0 when the scheduler exposes no stats).
        frontier_cells: Distinct quantised-reward cells in that
            frontier.
        candidate_masks: Masks that were deadline-feasible for this
            query from at least one frontier entry (always includes 0,
            the skip).
        predicted_finish: Server's completion estimate for the chosen
            mask at commit time (None for rejections).
        predicted_slack: ``deadline - predicted_finish``.
        realized_finish: Actual completion time, backfilled when the
            query finishes (None if it never does).
        realized_slack: ``deadline - realized_finish``.
    """

    query_id: int
    decided_at: float
    committed_at: float
    action: str
    chosen_mask: int
    score: float = float("nan")
    deadline: float = float("nan")
    batch_size: int = 0
    buffer_depth: int = 0
    busy_until: List[float] = field(default_factory=list)
    frontier_size: int = 0
    frontier_cells: int = 0
    candidate_masks: List[int] = field(default_factory=list)
    predicted_finish: Optional[float] = None
    predicted_slack: Optional[float] = None
    realized_finish: Optional[float] = None
    realized_slack: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-friendly representation."""
        return asdict(self)

    @classmethod
    def from_dict(cls, state: Dict[str, object]) -> "DecisionRecord":
        """Rebuild a record serialized by :meth:`to_dict`."""
        return cls(**state)

    @property
    def prediction_error(self) -> Optional[float]:
        """``realized - predicted`` finish seconds (None when either
        side is missing) — positive means the query ran later than the
        scheduler expected."""
        if self.predicted_finish is None or self.realized_finish is None:
            return None
        return self.realized_finish - self.predicted_finish


class DecisionLog:
    """Collects :class:`DecisionRecord` entries during a serving run.

    Pass one to ``EnsembleServer(..., explain=log)``; after ``run()``
    the log holds every planning decision in commit order. Memory is
    linear in the number of decisions (this is the opt-in debugging
    path, not the always-on metrics path).
    """

    def __init__(self):
        self.records: List[DecisionRecord] = []
        self._open: Dict[int, List[int]] = {}

    def __len__(self) -> int:
        return len(self.records)

    def add(self, record: DecisionRecord) -> None:
        """Append one decision (call order = commit order)."""
        self._open.setdefault(record.query_id, []).append(
            len(self.records)
        )
        self.records.append(record)

    def realize(self, query_id: int, finish: float, slack: float) -> None:
        """Backfill the realized outcome onto the query's latest
        decision (no-op for queries that were never explained)."""
        indices = self._open.get(query_id)
        if not indices:
            return
        record = self.records[indices[-1]]
        record.realized_finish = finish
        record.realized_slack = slack

    def for_query(self, query_id: int) -> List[DecisionRecord]:
        """All decisions about ``query_id``, in planning order."""
        return [self.records[i] for i in self._open.get(query_id, [])]

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """One JSON object per decision; parent dirs are created."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for record in self.records:
                fh.write(json.dumps(record.to_dict()) + "\n")
        return path

    @classmethod
    def read_jsonl(cls, path: Union[str, Path]) -> "DecisionLog":
        """Load a log written by :meth:`write_jsonl`."""
        log = cls()
        for line in Path(path).read_text().splitlines():
            if line.strip():
                log.add(DecisionRecord.from_dict(json.loads(line)))
        return log


def format_decision(record: DecisionRecord, n_models: int = 0) -> str:
    """Human-readable multi-line rendering (the ``explain`` command)."""

    def mask_bits(mask: int) -> str:
        if n_models <= 0:
            return bin(mask)
        return "{" + ",".join(
            f"m{k}" for k in range(n_models) if (mask >> k) & 1
        ) + "}"

    lines = [
        f"query {record.query_id}: {record.action} "
        f"mask={record.chosen_mask} {mask_bits(record.chosen_mask)}",
        f"  decided at t={record.decided_at:.4f}s, committed at "
        f"t={record.committed_at:.4f}s, deadline t={record.deadline:.4f}s",
        f"  score={record.score:.4f}  batch={record.batch_size}  "
        f"buffer_after={record.buffer_depth}",
        "  busy_until=[" + ", ".join(
            f"{b:.4f}" for b in record.busy_until
        ) + "]",
    ]
    if record.frontier_size:
        lines.append(
            f"  dp frontier: {record.frontier_size} entries over "
            f"{record.frontier_cells} reward cells; "
            f"{len(record.candidate_masks)} feasible masks "
            f"{record.candidate_masks}"
        )
    if record.predicted_finish is not None:
        lines.append(
            f"  predicted: finish t={record.predicted_finish:.4f}s "
            f"(slack {record.predicted_slack:+.4f}s)"
        )
    if record.realized_finish is not None:
        error = record.prediction_error
        suffix = f", error {error:+.4f}s" if error is not None else ""
        lines.append(
            f"  realized:  finish t={record.realized_finish:.4f}s "
            f"(slack {record.realized_slack:+.4f}s{suffix})"
        )
    elif record.action not in ("reject",):
        lines.append("  realized:  (never completed)")
    return "\n".join(lines)
