"""Edge running-environment simulator.

Section IV.C of the paper asks the running environment to "handle deep
learning packages, allocate computation resources and migrate computation
loads" while staying lightweight.  This package provides exactly that as
a discrete-virtual-time simulator:

* :mod:`repro.runtime.tasks` — task descriptions with priorities and deadlines;
* :mod:`repro.runtime.resources` — per-device memory/compute/energy accounting;
* :mod:`repro.runtime.scheduler` — a priority scheduler with the
  *real-time machine-learning* boost the package manager invokes for
  urgent inferences;
* :mod:`repro.runtime.edgeos` — the EdgeRuntime facade OpenEI deploys onto;
* :mod:`repro.runtime.migration` — computation migration between edges.
"""

from repro.runtime.edgeos import EdgeRuntime
from repro.runtime.migration import MigrationPlanner
from repro.runtime.resources import ResourceAccountant, ResourceUsage
from repro.runtime.scheduler import PriorityScheduler, ScheduleEntry
from repro.runtime.tasks import Task, TaskPriority, TaskState

__all__ = [
    "EdgeRuntime",
    "MigrationPlanner",
    "PriorityScheduler",
    "ResourceAccountant",
    "ResourceUsage",
    "ScheduleEntry",
    "Task",
    "TaskPriority",
    "TaskState",
]
