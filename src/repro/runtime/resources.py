"""Resource accounting for an edge device."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.exceptions import ResourceExhaustedError
from repro.hardware.device import DeviceSpec


@dataclass
class ResourceUsage:
    """A snapshot of a device's committed resources."""

    memory_mb: float
    memory_capacity_mb: float
    storage_mb: float
    storage_capacity_mb: float
    energy_joules: float

    @property
    def memory_utilization(self) -> float:
        return self.memory_mb / self.memory_capacity_mb if self.memory_capacity_mb else 0.0

    @property
    def storage_utilization(self) -> float:
        return self.storage_mb / self.storage_capacity_mb if self.storage_capacity_mb else 0.0


class ResourceAccountant:
    """Tracks memory/storage reservations and cumulative energy on one device.

    The runtime charges every admitted task's memory while it runs and
    every completed task's energy; OpenEI's capability evaluation reads
    the headroom when answering "can this model run here right now?".
    """

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        self._memory_mb = 0.0
        self._storage_mb = 0.0
        self._energy_joules = 0.0
        self._reservations: Dict[int, float] = {}

    # -- memory ----------------------------------------------------------
    def reserve_memory(self, owner_id: int, memory_mb: float) -> None:
        """Reserve memory for a task or a loaded model; raises when it does not fit."""
        if memory_mb < 0:
            raise ResourceExhaustedError("cannot reserve negative memory")
        if self._memory_mb + memory_mb > self.device.memory_mb:
            raise ResourceExhaustedError(
                f"device {self.device.name} cannot fit {memory_mb:.1f} MB "
                f"(in use {self._memory_mb:.1f} / {self.device.memory_mb:.1f} MB)"
            )
        self._memory_mb += memory_mb
        self._reservations[owner_id] = self._reservations.get(owner_id, 0.0) + memory_mb

    def release_memory(self, owner_id: int) -> None:
        """Release all memory reserved under ``owner_id`` (no-op if unknown)."""
        reserved = self._reservations.pop(owner_id, 0.0)
        self._memory_mb = max(0.0, self._memory_mb - reserved)

    # -- storage -----------------------------------------------------------
    def store(self, megabytes: float) -> None:
        """Consume local storage (model files, cached sensor data)."""
        if megabytes < 0:
            raise ResourceExhaustedError("cannot store a negative amount")
        if self._storage_mb + megabytes > self.device.storage_mb:
            raise ResourceExhaustedError(
                f"device {self.device.name} storage exhausted "
                f"({self._storage_mb:.1f} + {megabytes:.1f} > {self.device.storage_mb:.1f} MB)"
            )
        self._storage_mb += megabytes

    def free(self, megabytes: float) -> None:
        """Return local storage."""
        self._storage_mb = max(0.0, self._storage_mb - megabytes)

    # -- energy ------------------------------------------------------------
    def charge_energy(self, joules: float) -> None:
        """Accumulate dynamic energy spent by completed work."""
        if joules < 0:
            raise ResourceExhaustedError("cannot charge negative energy")
        self._energy_joules += joules

    # -- reporting ----------------------------------------------------------
    def usage(self) -> ResourceUsage:
        """Current snapshot."""
        return ResourceUsage(
            memory_mb=self._memory_mb,
            memory_capacity_mb=self.device.memory_mb,
            storage_mb=self._storage_mb,
            storage_capacity_mb=self.device.storage_mb,
            energy_joules=self._energy_joules,
        )
