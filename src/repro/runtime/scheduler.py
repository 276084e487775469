"""Priority scheduler with the real-time machine-learning boost.

The scheduler runs in *virtual time*: tasks carry their execution cost in
seconds and the scheduler advances a clock as it executes them on a
single device.  Priorities are strict — a REALTIME task always runs
before anything of lower priority — which is how the package manager's
real-time module "sets the machine learning task to the highest priority
to ensure that it has as many computing resources as possible".

Eligibility matters as much as priority: a task submitted for a future
``at_time`` is invisible to the scheduler until the clock reaches its
submission time, so a queued-for-later REALTIME task can never drag the
clock forward past work that is already eligible (which would inflate
the completion times the benchmarks report).  The queue is therefore
split in two: a *ready* heap ordered by (priority desc, submission,
sequence) and a *future* heap ordered by submission time; tasks migrate
from future to ready as the clock advances.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from repro.exceptions import ResourceExhaustedError, SchedulingError
from repro.runtime.resources import ResourceAccountant
from repro.runtime.tasks import Task, TaskPriority, TaskState


@dataclass(order=True)
class ScheduleEntry:
    """Heap entry ordering tasks by (priority desc, submission time, id)."""

    sort_key: tuple
    task: Task = field(compare=False)


class PriorityScheduler:
    """Single-device, non-preemptive strict-priority scheduler in virtual time."""

    def __init__(self, accountant: ResourceAccountant) -> None:
        self.accountant = accountant
        self._ready: List[ScheduleEntry] = []
        self._future: List[ScheduleEntry] = []
        self._clock = 0.0
        self._sequence = itertools.count()
        self.completed: List[Task] = []
        self.failed: List[Task] = []

    # -- submission ------------------------------------------------------
    @property
    def clock(self) -> float:
        """Current virtual time in seconds."""
        return self._clock

    def submit(self, task: Task, at_time: Optional[float] = None) -> Task:
        """Queue a task for execution.

        ``at_time`` defaults to the current virtual clock; it may not lie
        in the past.
        """
        when = self._clock if at_time is None else float(at_time)
        if when < self._clock:
            raise SchedulingError("cannot submit a task in the past")
        task.submitted_at = when
        task.state = TaskState.PENDING
        sequence = next(self._sequence)
        if when > self._clock:
            entry = ScheduleEntry(sort_key=(when, sequence), task=task)
            heapq.heappush(self._future, entry)
        else:
            entry = ScheduleEntry(
                sort_key=(-int(task.priority), when, sequence), task=task
            )
            heapq.heappush(self._ready, entry)
        return task

    def pending_count(self) -> int:
        """Number of queued tasks (eligible now or scheduled for later)."""
        return len(self._ready) + len(self._future)

    def _promote_eligible(self) -> None:
        """Move future tasks whose submission time has arrived onto the ready heap."""
        while self._future and self._future[0].sort_key[0] <= self._clock:
            entry = heapq.heappop(self._future)
            when, sequence = entry.sort_key
            heapq.heappush(
                self._ready,
                ScheduleEntry(
                    sort_key=(-int(entry.task.priority), when, sequence),
                    task=entry.task,
                ),
            )

    # -- execution --------------------------------------------------------
    def _execute(self, task: Task) -> None:
        start = max(self._clock, task.submitted_at)
        try:
            self.accountant.reserve_memory(task.task_id, task.memory_mb)
        except ResourceExhaustedError:
            task.state = TaskState.FAILED
            self.failed.append(task)
            return
        task.state = TaskState.RUNNING
        task.started_at = start
        self._clock = start + task.compute_seconds
        task.finished_at = self._clock
        task.state = TaskState.COMPLETED
        self.accountant.release_memory(task.task_id)
        self.completed.append(task)

    def run_next(self) -> Optional[Task]:
        """Execute the highest-priority *eligible* pending task.

        Only tasks with ``submitted_at <= clock`` compete; when nothing is
        eligible yet the clock advances to the earliest future submission
        (the device sits idle until work arrives).  Returns the executed
        task — which may have FAILED on admission — or ``None`` when the
        queue is empty.
        """
        self._promote_eligible()
        if not self._ready:
            if not self._future:
                return None
            # idle until the next submission arrives
            self._clock = self._future[0].sort_key[0]
            self._promote_eligible()
        entry = heapq.heappop(self._ready)
        self._execute(entry.task)
        return entry.task

    def run_all(self, strict: bool = False) -> List[Task]:
        """Drain the queue, returning every executed task in execution order.

        Failed tasks are *not* dropped: they appear in the returned list
        with ``state == TaskState.FAILED`` (and in :attr:`failed`).  With
        ``strict=True`` the queue is still fully drained, then a
        :class:`~repro.exceptions.SchedulingError` names the failures.
        """
        executed = []
        while self._ready or self._future:
            task = self.run_next()
            if task is not None:
                executed.append(task)
        if strict:
            failures = [t for t in executed if t.state is TaskState.FAILED]
            if failures:
                raise SchedulingError(
                    "tasks failed admission: "
                    + ", ".join(f"{t.name}#{t.task_id}" for t in failures)
                )
        return executed


def promote_to_realtime(task: Task) -> Task:
    """The real-time ML module's operation: raise a task to REALTIME priority."""
    task.priority = TaskPriority.REALTIME
    return task
