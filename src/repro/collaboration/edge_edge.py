"""Edge-edge collaboration (Section II.C, second mode).

Two cooperation patterns are implemented:

1. **Compute-proportional work allocation** — a compute-intensive job
   (e.g. training a large network) is split across several edges in
   proportion to their compute power, so all finish at roughly the same
   time; :class:`EdgeCluster.allocate_training` returns the plan and the
   resulting parallel makespan versus single-edge execution.
2. **Task coordination** — several edges each take a different sub-task
   of a pipeline (the smart-home "phone predicts arrival, thermostat
   pre-heats" example); :meth:`EdgeCluster.run_pipeline` executes stages
   on their assigned runtimes and reports the end-to-end latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import CollaborationError
from repro.hardware.device import NetworkLink
from repro.runtime.edgeos import EdgeRuntime
from repro.runtime.tasks import Task


@dataclass
class CollaborativeTrainingPlan:
    """How a training job is split across edges."""

    shares: Dict[str, float]           # runtime name -> fraction of the work
    per_edge_seconds: Dict[str, float]  # runtime name -> time to finish its share
    makespan_s: float                   # parallel completion time
    single_edge_seconds: float          # time if the strongest edge did it all

    @property
    def speedup(self) -> float:
        """Single-edge time over collaborative makespan."""
        return self.single_edge_seconds / self.makespan_s if self.makespan_s > 0 else float("inf")


class EdgeCluster:
    """A set of cooperating edge runtimes connected by a LAN-class link."""

    def __init__(self, runtimes: Sequence[EdgeRuntime], link: Optional[NetworkLink] = None) -> None:
        if not runtimes:
            raise CollaborationError("EdgeCluster needs at least one runtime")
        names = [r.name for r in runtimes]
        if len(set(names)) != len(names):
            raise CollaborationError("runtime names must be unique within a cluster")
        self.runtimes = {r.name: r for r in runtimes}
        self.link = link or NetworkLink(name="cluster-lan", bandwidth_mbps=200.0, latency_ms=2.0)

    # -- compute-proportional allocation ------------------------------------
    def allocate_training(
        self, total_compute_gflop: float, sync_bytes: float = 0.0
    ) -> CollaborativeTrainingPlan:
        """Split ``total_compute_gflop`` of training work proportionally to device power."""
        if total_compute_gflop <= 0:
            raise CollaborationError("total_compute_gflop must be positive")
        powers = {name: rt.device.peak_gflops for name, rt in self.runtimes.items()}
        total_power = sum(powers.values())
        shares = {name: power / total_power for name, power in powers.items()}
        sync_overhead = self.link.transfer_seconds(sync_bytes) if sync_bytes else 0.0
        per_edge_seconds = {
            name: total_compute_gflop * share / powers[name] + sync_overhead
            for name, share in shares.items()
        }
        makespan = max(per_edge_seconds.values())
        strongest = max(powers.values())
        single = total_compute_gflop / strongest
        return CollaborativeTrainingPlan(
            shares=shares,
            per_edge_seconds=per_edge_seconds,
            makespan_s=makespan,
            single_edge_seconds=single,
        )

    # -- multi-edge pipelines ---------------------------------------------------
    def run_pipeline(
        self, stages: Sequence[Tuple[str, Task]], payload_bytes: float = 1024.0
    ) -> Tuple[float, List[Task]]:
        """Run pipeline stages on their assigned runtimes, chaining hand-offs.

        ``stages`` is a list of ``(runtime_name, task)``; consecutive
        stages on different runtimes pay one link transfer for the
        intermediate payload.  Returns the end-to-end latency and the
        executed tasks.
        """
        if not stages:
            raise CollaborationError("pipeline needs at least one stage")
        total = 0.0
        executed: List[Task] = []
        previous_runtime: Optional[str] = None
        for runtime_name, task in stages:
            runtime = self.runtimes.get(runtime_name)
            if runtime is None:
                raise CollaborationError(f"unknown runtime {runtime_name!r} in pipeline")
            if previous_runtime is not None and previous_runtime != runtime_name:
                total += self.link.transfer_seconds(payload_bytes)
            runtime.submit(task)
            runtime.run_pending()
            total += task.compute_seconds
            executed.append(task)
            previous_runtime = runtime_name
        return total, executed
