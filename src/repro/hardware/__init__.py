"""Edge hardware substrate: analytical device models and the ALEM profiler.

The paper's model selector reasons over heterogeneous edge hardware
(Raspberry Pi, Jetson TX2, mobile phones, edge servers, Arduino-class
MCUs).  Since physical boards are unavailable, each device is described
analytically — peak compute throughput, memory bandwidth, RAM and power
draw — and a roofline-style performance model converts a model's static
cost profile into the Latency, Energy and Memory-footprint entries of the
ALEM tuple.  Relative orderings between devices and between models match
the published characteristics the selector depends on.
"""

from repro.hardware.catalog import DEVICE_CATALOG, get_device
from repro.hardware.device import DeviceSpec, NetworkLink
from repro.hardware.energy import EnergyModel
from repro.hardware.latency import LatencyModel
from repro.hardware.memory import MemoryModel
from repro.hardware.profiler import (
    PACKAGE_CONFIGURATIONS,
    ALEMProfiler,
    ProfileResult,
    make_profiler,
)

__all__ = [
    "ALEMProfiler",
    "PACKAGE_CONFIGURATIONS",
    "make_profiler",
    "DEVICE_CATALOG",
    "DeviceSpec",
    "EnergyModel",
    "LatencyModel",
    "MemoryModel",
    "NetworkLink",
    "ProfileResult",
    "get_device",
]
