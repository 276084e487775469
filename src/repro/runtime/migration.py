"""Computation migration between edge runtimes.

Section IV.C names computation migration as a required capability of the
edge running environment.  The planner decides, for a given task and a
set of candidate runtimes, whether shipping the task's input elsewhere
and running it there beats running it locally — accounting for transfer
time over the connecting link and relative device speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.exceptions import MigrationError
from repro.hardware.device import NetworkLink
from repro.runtime.edgeos import EdgeRuntime
from repro.runtime.tasks import Task, TaskState


@dataclass(frozen=True)
class MigrationDecision:
    """Outcome of a migration evaluation."""

    migrate: bool
    target_runtime: Optional[str]
    local_seconds: float
    best_remote_seconds: float

    @property
    def speedup(self) -> float:
        """Local time divided by the chosen option's time (>= 1 when migrating helps)."""
        chosen = self.best_remote_seconds if self.migrate else self.local_seconds
        return self.local_seconds / chosen if chosen > 0 else float("inf")


class MigrationPlanner:
    """Chooses where a task should run among connected edge runtimes."""

    def __init__(self, local: EdgeRuntime) -> None:
        self.local = local
        self._peers: Dict[str, tuple] = {}

    def connect(self, runtime: EdgeRuntime, link: NetworkLink) -> None:
        """Register a peer runtime reachable over ``link``."""
        self._peers[runtime.name] = (runtime, link)

    def estimate_remote_seconds(
        self, task: Task, payload_bytes: float, peer_name: str
    ) -> float:
        """Transfer + remote-execution time for running ``task`` on a peer."""
        try:
            runtime, link = self._peers[peer_name]
        except KeyError as exc:
            raise MigrationError(f"unknown peer runtime {peer_name!r}") from exc
        speed_ratio = self.local.device.peak_gflops / runtime.device.peak_gflops
        remote_compute = task.compute_seconds * speed_ratio
        return link.transfer_seconds(payload_bytes) + remote_compute

    def plan(self, task: Task, payload_bytes: float) -> MigrationDecision:
        """Decide whether to migrate ``task`` (with ``payload_bytes`` of input data)."""
        local_seconds = task.compute_seconds
        best_name = None
        best_seconds = float("inf")
        for name in self._peers:
            seconds = self.estimate_remote_seconds(task, payload_bytes, name)
            if seconds < best_seconds:
                best_name, best_seconds = name, seconds
        migrate = best_name is not None and best_seconds < local_seconds
        return MigrationDecision(
            migrate=migrate,
            target_runtime=best_name if migrate else None,
            local_seconds=local_seconds,
            best_remote_seconds=best_seconds if best_name is not None else local_seconds,
        )

    def execute(self, task: Task, payload_bytes: float) -> Task:
        """Run the task where the plan says; returns the completed task."""
        decision = self.plan(task, payload_bytes)
        if not decision.migrate or decision.target_runtime is None:
            self.local.submit(task)
            self.local.run_pending()
            return task
        runtime, link = self._peers[decision.target_runtime]
        remote_task = Task(
            name=f"{task.name}@{decision.target_runtime}",
            compute_seconds=task.compute_seconds
            * (self.local.device.peak_gflops / runtime.device.peak_gflops),
            memory_mb=task.memory_mb,
            priority=task.priority,
            deadline_s=task.deadline_s,
            kind=task.kind,
        )
        runtime.submit(remote_task)
        runtime.run_pending()
        task.state = TaskState.MIGRATED
        task.finished_at = task.submitted_at + link.transfer_seconds(payload_bytes) + (
            remote_task.completion_time or 0.0
        )
        return remote_task
