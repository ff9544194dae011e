"""The exact DP pinned to its loop form at every buffer size.

:class:`~repro.scheduling.dp.DPScheduler` holds Algorithm 1 in two
bit-exact forms and picks one per instance by size: the plain-Python
loop form on small buffers, the numpy kernel on large ones (see
``dp.py``). :class:`DPReferenceScheduler` always runs the
loop form, through the same code the small-buffer path runs. It is the
readable definition of the algorithm that the kernel is checked
against, and a scheduler in its own right: on large buffers it is
several times slower than the kernel (``BENCH_sched.json``).
"""

from __future__ import annotations

from repro.scheduling.dp import DPScheduler
from repro.scheduling.problem import ScheduleResult, SchedulingInstance


class DPReferenceScheduler(DPScheduler):
    """:class:`~repro.scheduling.dp.DPScheduler` in the loop form only.

    Same constructor, hooks (``collect_stats``, ``profile``) and output
    as ``DPScheduler``.
    """

    name = "dp-reference"

    def schedule(self, instance: SchedulingInstance) -> ScheduleResult:
        """Solve the local subproblem in the loop form; decisions come
        back in EDF order."""
        return self.schedule_loop(instance)
