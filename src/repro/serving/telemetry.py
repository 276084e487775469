"""Online ALEM telemetry for the serving layer.

The Eq. (1) selection is solved from *analytically profiled* ALEM points,
but device load, latency and accuracy drift at runtime.
:class:`ALEMTelemetry` closes the measurement half of the loop: every
live gateway call records its observed latency (and, when the scenario
algorithm reports them, accuracy / energy / memory) into a sliding
window keyed by ``(scenario, algorithm, replica)``.  The
:class:`~repro.serving.adaptive.AdaptiveController` then compares the
windowed means against the application's
:class:`~repro.core.alem.ALEMRequirement` and re-solves the selection
when the measurements violate it.

Observations arrive from two sources:

* the :class:`~repro.serving.fleet.EdgeFleet` wall-clocks every
  algorithm call it routes, single or list;
* a handler can report richer, simulation-aware measurements by putting
  an ``"observed_alem"`` dictionary into its result — any subset of
  ``accuracy`` / ``latency_s`` / ``energy_j`` / ``memory_mb``.  Reported
  values take precedence over the wall clock for the axes they cover.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.alem import ALEM, ALEMRequirement
from repro.core.wal import ControlPlaneJournal
from repro.exceptions import ConfigurationError

#: The telemetry key: one window per (scenario, algorithm, replica).
TelemetryKey = Tuple[str, str, str]

#: Result key under which handlers may report measured ALEM axes.
OBSERVED_ALEM_KEY = "observed_alem"

#: Every JOURNAL_EVERY-th observation of a key snapshots its whole window
#: into the WAL (journaling every observation would write one fsync per
#: request); recovery restores the last snapshot and the first few live
#: requests refresh the means.
JOURNAL_EVERY = 8

_AXES = ("accuracy", "latency_s", "energy_j", "memory_mb")

#: Axis values that make :meth:`ALEMRequirement.violations` inert for axes
#: that have no observations: perfect accuracy and zero cost can never
#: violate a ``min_accuracy`` / ``max_*`` constraint.
_NEUTRAL = {"accuracy": 1.0, "latency_s": 0.0, "energy_j": 0.0, "memory_mb": 0.0}

#: Maps :meth:`ALEMRequirement.violations` names to telemetry axis names.
_VIOLATION_AXES = {
    "accuracy": "accuracy",
    "latency": "latency_s",
    "energy": "energy_j",
    "memory": "memory_mb",
}


@dataclass
class TelemetryWindow:
    """Sliding per-axis observation windows for one telemetry key."""

    maxlen: int
    samples: Dict[str, Deque[float]] = field(default_factory=dict)
    total_observations: int = 0

    def record(self, **axes: float) -> None:
        """Append one observation; unknown axis names are rejected."""
        for axis, value in axes.items():
            if axis not in _AXES:
                raise ConfigurationError(
                    f"unknown ALEM axis {axis!r}; expected one of {_AXES}"
                )
            if value is None:
                continue
            window = self.samples.get(axis)
            if window is None:
                window = self.samples[axis] = deque(maxlen=self.maxlen)
            window.append(float(value))
        self.total_observations += 1

    def count(self, axis: str = "latency_s") -> int:
        """Number of samples currently windowed for one axis."""
        window = self.samples.get(axis)
        return len(window) if window is not None else 0

    def mean(self, axis: str) -> Optional[float]:
        """Windowed mean of one axis, or ``None`` when it was never observed."""
        window = self.samples.get(axis)
        if not window:
            return None
        return sum(window) / len(window)

    def observed_alem(self) -> ALEM:
        """The windowed means as an :class:`ALEM` point.

        Axes with no observations take neutral values (accuracy ``1.0``,
        costs ``0.0``) so that :meth:`ALEMRequirement.violations` only
        flags axes that were actually measured.
        """
        values = {}
        for axis in _AXES:
            mean = self.mean(axis)
            if axis == "accuracy" and mean is not None:
                mean = min(1.0, max(0.0, mean))
            values[axis] = _NEUTRAL[axis] if mean is None else mean
        return ALEM(**values)

    def violations(self, requirement: ALEMRequirement) -> Dict[str, float]:
        """Constraint violations of the windowed means (measured axes only)."""
        return requirement.violations(self.observed_alem())

    def confirmed_violations(
        self, requirement: ALEMRequirement, min_samples: int
    ) -> Dict[str, float]:
        """Violations whose axis has at least ``min_samples`` observations.

        Both control loops act only on these: one slow request must not
        reconfigure a fleet or roll back a canary.
        """
        return {
            name: magnitude
            for name, magnitude in self.violations(requirement).items()
            if self.count(_VIOLATION_AXES[name]) >= min_samples
        }

    def clear(self) -> None:
        """Forget every sample (used after a reselection, so the fresh
        deployment is judged on its own measurements, not its predecessor's)."""
        self.samples.clear()

    def as_dict(self) -> Dict[str, object]:
        return {
            "observations": self.total_observations,
            "window": {axis: self.count(axis) for axis in _AXES if self.count(axis)},
            "mean": {axis: self.mean(axis) for axis in _AXES if self.mean(axis) is not None},
        }


class ALEMTelemetry:
    """Thread-safe sliding-window collector of per-replica ALEM observations.

    One instance is shared by a whole fleet: gateway handler threads
    record concurrently, the adaptive controller reads windowed means.
    ``window_size`` bounds both memory and how slowly the windows react —
    a violation must persist for about ``min_samples`` requests (see
    :class:`~repro.serving.adaptive.SLOPolicy`) before the controller acts.
    """

    def __init__(
        self,
        window_size: int = 32,
        journal: Optional[ControlPlaneJournal] = None,
    ) -> None:
        if window_size <= 0:
            raise ConfigurationError("telemetry window_size must be positive")
        self.window_size = int(window_size)
        self.journal = journal
        self._lock = threading.Lock()
        self._windows: Dict[TelemetryKey, TelemetryWindow] = {}  # guarded-by: _lock

    def record(
        self,
        scenario: str,
        algorithm: str,
        replica: str,
        latency_s: Optional[float] = None,
        accuracy: Optional[float] = None,
        energy_j: Optional[float] = None,
        memory_mb: Optional[float] = None,
    ) -> None:
        """Record one observation for ``(scenario, algorithm, replica)``."""
        key = (scenario, algorithm, replica)
        snapshot = None
        with self._lock:
            window = self._windows.get(key)
            if window is None:
                window = self._windows[key] = TelemetryWindow(maxlen=self.window_size)
            window.record(
                latency_s=latency_s,
                accuracy=accuracy,
                energy_j=energy_j,
                memory_mb=memory_mb,
            )
            if self.journal is not None and window.total_observations % JOURNAL_EVERY == 0:
                snapshot = {
                    "samples": {axis: list(dq) for axis, dq in window.samples.items()},
                    "total_observations": window.total_observations,
                }
        if snapshot is not None:
            # appended outside the lock: the fsync must not serialize every
            # concurrent gateway handler behind it, and the snapshot dict is
            # already a private copy
            self.journal.append(
                ControlPlaneJournal.TELEMETRY_WINDOW,
                scenario=scenario,
                algorithm=algorithm,
                replica=replica,
                **snapshot,
            )

    def record_result(
        self,
        scenario: str,
        algorithm: str,
        replica: str,
        result: Dict[str, object],
        wall_latency_s: Optional[float] = None,
    ) -> None:
        """Record a finished call from its result dictionary.

        Measurements reported under ``result["observed_alem"]`` win; the
        wall-clock latency fills in only when the handler did not report
        its own latency.
        """
        reported = result.get(OBSERVED_ALEM_KEY)
        axes: Dict[str, Optional[float]] = {}
        if isinstance(reported, dict):
            for axis in _AXES:
                value = reported.get(axis)
                if value is not None:
                    axes[axis] = float(value)  # type: ignore[arg-type]
        if "latency_s" not in axes and wall_latency_s is not None:
            axes["latency_s"] = wall_latency_s
        if axes:
            self.record(scenario, algorithm, replica, **axes)

    # -- reading ----------------------------------------------------------------
    def window(self, scenario: str, algorithm: str, replica: str) -> Optional[TelemetryWindow]:
        """A consistent snapshot of one key's window (``None`` before any record).

        Handler threads keep appending to the live window while the
        controller reads, so the live object is never handed out: the
        caller gets a copy taken under the collector's lock and can
        iterate it without torn means or mutated-during-iteration errors.
        """
        with self._lock:
            window = self._windows.get((scenario, algorithm, replica))
            if window is None:
                return None
            return TelemetryWindow(
                maxlen=window.maxlen,
                samples={
                    axis: deque(samples, maxlen=window.maxlen)
                    for axis, samples in window.samples.items()
                },
                total_observations=window.total_observations,
            )

    def observed(self, scenario: str, algorithm: str, replica: str) -> Optional[ALEM]:
        """Windowed-mean ALEM for one key, or ``None`` with no observations."""
        window = self.window(scenario, algorithm, replica)
        if window is None or window.total_observations == 0:
            return None
        return window.observed_alem()

    def reset(self, scenario: str, algorithm: str, replica: Optional[str] = None) -> None:
        """Clear windows for one algorithm (all replicas unless one is named)."""
        with self._lock:
            for (s, a, r), window in self._windows.items():
                if s == scenario and a == algorithm and (replica is None or r == replica):
                    window.clear()
        if self.journal is not None:
            # journaled after the clear so a snapshot written between the
            # two reflects at worst an already-empty window
            self.journal.append(
                ControlPlaneJournal.TELEMETRY_RESET,
                scenario=scenario,
                algorithm=algorithm,
                replica=replica,
            )

    def restore_window(
        self,
        scenario: str,
        algorithm: str,
        replica: str,
        samples: Dict[str, List[float]],
        total_observations: int,
    ) -> bool:
        """Reinstate one journaled window snapshot after a restart.

        Returns ``False`` (and restores nothing) when the key already has
        live observations — replaying the WAL twice, or replaying it after
        traffic resumed, must never clobber fresher measurements.
        """
        key = (scenario, algorithm, replica)
        with self._lock:
            window = self._windows.get(key)
            if window is not None and window.total_observations > 0:
                return False
            restored = TelemetryWindow(maxlen=self.window_size)
            for axis, values in samples.items():
                if axis not in _AXES:
                    raise ConfigurationError(
                        f"unknown ALEM axis {axis!r} in telemetry snapshot"
                    )
                restored.samples[axis] = deque(
                    (float(v) for v in values), maxlen=self.window_size
                )
            restored.total_observations = int(total_observations)
            self._windows[key] = restored
        return True

    def describe(self) -> Dict[str, object]:
        """Status summary surfaced through ``/ei_status``."""
        with self._lock:
            return {
                "window_size": self.window_size,
                "tracked_keys": len(self._windows),
                "windows": {
                    f"{s}/{a}@{r}": window.as_dict()
                    for (s, a, r), window in sorted(self._windows.items())
                },
            }
