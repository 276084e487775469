"""Smart Homes (Section V.C).

The exposed algorithm is ``home/power_monitor``: non-intrusive load
monitoring of the whole-home power trace.  Given the aggregate wattage,
the monitor infers which appliances are on by finding the subset of known
appliance signatures that best explains the measurement (the IEHouse /
PowerAnalyzer use case the paper cites), entirely on the edge so no
consumption data leaves the home.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps._batching import amortized_batch_latency, capture_readings
from repro.core.openei import OpenEI
from repro.data.sensors import PowerMeterSensor
from repro.exceptions import ConfigurationError


class PowerMonitor:
    """Subset-matching non-intrusive load monitor.

    The 2^A on/off combinations and their signature sums are enumerated
    once at construction; :meth:`infer_batch` then resolves measurements
    with a vectorized nearest-sum lookup (sorted sums + ``searchsorted``)
    instead of re-enumerating every subset per sample.
    """

    def __init__(
        self,
        appliance_names: Sequence[str] = PowerMeterSensor.APPLIANCES,
        appliance_watts: Sequence[float] = PowerMeterSensor.APPLIANCE_WATTS,
        base_load_w: float = 80.0,
    ) -> None:
        if len(appliance_names) != len(appliance_watts):
            raise ConfigurationError("appliance_names and appliance_watts must align")
        if not appliance_names:
            raise ConfigurationError("at least one appliance signature is required")
        self.appliance_names = tuple(appliance_names)
        self.appliance_watts = np.asarray(appliance_watts, dtype=np.float64)
        self.base_load_w = float(base_load_w)
        self._build_combination_table()

    def _build_combination_table(self) -> None:
        """Precompute every appliance subset, its wattage sum and its tie rank.

        Combinations are ranked in the classic subset-matching search
        order — the empty set, then size-ascending lexicographic — so
        equal-error ties resolve exactly as the per-sample enumeration
        did (the first strictly-better candidate wins).  Duplicate sums
        keep only their lowest-ranked combination; the table is then
        sorted by sum so lookup is a ``searchsorted`` between the two
        neighbouring sums.
        """
        count = len(self.appliance_names)
        indices = range(count)
        ordered: List[Tuple[int, ...]] = [()]
        for size in range(1, count + 1):
            ordered.extend(combinations(indices, size))
        # map each distinct sum to the lowest-ranked combination producing it
        sum_to_rank: Dict[float, int] = {}
        sums = np.array([float(self.appliance_watts[list(c)].sum()) for c in ordered])
        for rank in range(len(ordered)):
            value = sums[rank]
            if value not in sum_to_rank:
                sum_to_rank[value] = rank
        unique_sums = np.array(sorted(sum_to_rank))
        ranks = np.array([sum_to_rank[value] for value in unique_sums])
        states = np.zeros((len(ordered), count), dtype=bool)
        for rank, combo in enumerate(ordered):
            states[rank, list(combo)] = True
        self._combo_sums = unique_sums          # (n_unique,) ascending
        self._combo_ranks = ranks               # enumeration rank per unique sum
        self._combo_states = states             # (2^A, A) on/off patterns by rank

    def _lookup(self, residuals: np.ndarray) -> np.ndarray:
        """Ranks of the best-matching combination for each residual wattage.

        For each residual the candidates are the two table sums bracketing
        it; exact error ties go to the lower enumeration rank, matching
        the strictly-improving scan of the original search.
        """
        sums = self._combo_sums
        upper = np.searchsorted(sums, residuals).clip(0, len(sums) - 1)
        lower = np.maximum(upper - 1, 0)
        error_lower = np.abs(residuals - sums[lower])
        error_upper = np.abs(residuals - sums[upper])
        rank_lower = self._combo_ranks[lower]
        rank_upper = self._combo_ranks[upper]
        prefer_lower = (error_lower < error_upper) | (
            (error_lower == error_upper) & (rank_lower < rank_upper)
        )
        return np.where(prefer_lower, rank_lower, rank_upper)

    def infer_batch(self, power_w: np.ndarray) -> np.ndarray:
        """Infer appliance states for a whole trace; returns (n, appliances) booleans.

        One vectorized nearest-sum lookup resolves the entire trace — no
        per-sample combination scan.
        """
        residuals = np.asarray(power_w, dtype=np.float64) - self.base_load_w
        return self._combo_states[self._lookup(residuals)]

    def accuracy(self, power_w: np.ndarray, true_states: np.ndarray) -> float:
        """Per-appliance state accuracy averaged over the trace."""
        predicted = self.infer_batch(power_w)
        if predicted.shape != true_states.shape:
            raise ConfigurationError("true_states shape does not match the trace")
        return float(np.mean(predicted == true_states))

    def estimated_energy_kwh(self, power_w: np.ndarray, period_s: float = 60.0) -> float:
        """Energy represented by the trace, for energy-saving reports."""
        return float(power_w.sum() * period_s / 3.6e6)


def register_smart_home(
    openei: OpenEI, meter_id: str = "powermeter1", seed: int = 0,
    monitor: Optional[PowerMonitor] = None,
) -> PowerMonitor:
    """Attach a power meter and register the power-monitoring algorithm on ``openei``."""
    monitor = monitor or PowerMonitor()
    meter = PowerMeterSensor(sensor_id=meter_id, seed=seed)
    openei.data_store.register_sensor(meter)

    def power_monitor_batch_handler(
        ei: OpenEI, calls: List[Dict[str, object]]
    ) -> List[Dict[str, object]]:
        """Resolve every call's reading with one vectorized nearest-sum lookup."""
        start = time.perf_counter()
        readings, _ = capture_readings(ei, calls, "meter", meter_id)
        totals = np.array([reading.payload[0] for reading in readings], dtype=np.float64)
        truth = np.array(
            [reading.annotations["appliance_states"] for reading in readings], dtype=bool
        )
        batch_states = monitor.infer_batch(totals)
        accuracy = (batch_states == truth).mean(axis=1).tolist()
        latency = amortized_batch_latency(start, ei, len(calls))
        names = monitor.appliance_names
        return [
            {
                # per-request ALEM observation for the adaptive control plane:
                # wall-clock compute scaled by the runtime's emulated slowdown,
                # plus per-appliance state accuracy against the ground truth
                "observed_alem": {"latency_s": latency, "accuracy": correct},
                "sensor_id": reading.sensor_id,
                "timestamp": reading.timestamp,
                "total_watts": total,
                "appliances": dict(zip(names, states)),
                "ground_truth": dict(zip(names, actual)),
            }
            for reading, total, states, actual, correct in zip(
                readings, totals.tolist(), batch_states.tolist(), truth.tolist(), accuracy
            )
        ]

    openei.register_algorithm("home", "power_monitor", batch_handler=power_monitor_batch_handler)
    return monitor
