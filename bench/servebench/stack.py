"""Composing the system under test: as shipped, traced, and managed.

``build_fleet`` is the one place the benchmark decides how the fleet is
wired.  Untraced it is literally ``EdgeFleet.deploy(DEVICES)`` +
``register_all(seed=0)`` — the shipped defaults (round-robin router,
shared selection cache, batching off).  Traced it composes the same
parts from the :mod:`servebench.traced` subclasses.  ``managed`` adds the
durable control plane the way ``examples/model_rollout.py`` and
``examples/adaptive_serving.py`` do.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.apps import register_all
from repro.core import (
    ALEMRequirement,
    BlobStore,
    ControlPlaneJournal,
    ModelRegistry,
    ModelZoo,
    OptimizationTarget,
)
from repro.eialgorithms import build_lenet
from repro.serving import (
    ALEMTelemetry,
    AdaptiveController,
    EdgeFleet,
    RolloutController,
    RolloutPolicy,
    SelectionCache,
    SLOPolicy,
    recover_control_plane,
)

from servebench.spans import SpanRecorder
from servebench.stats import median
from servebench.traced import (
    TracedFleet,
    TracedJournal,
    TracedOpenEI,
    TracedRouter,
    TracedTelemetry,
)
from servebench.workloads import CLASSIFY, DEVICES, camera_readings

MODEL = "safety-classifier"
TICK_S = 0.1
RECOVERY_REPLAYS = 5


def build_fleet(
    recorder: Optional[SpanRecorder] = None,
    telemetry: Optional[ALEMTelemetry] = None,
    emulated: Optional[Dict[str, List[float]]] = None,
) -> EdgeFleet:
    """The four-replica fleet with every stock scenario registered."""
    if recorder is None:
        fleet = EdgeFleet.deploy(DEVICES, telemetry=telemetry)
    else:
        # EdgeFleet.deploy's defaults, spelled out so the instances can be
        # the traced subclass: one shared zoo, one shared selection cache
        cache = SelectionCache(max_size=1024, ttl_s=60.0)
        fleet = TracedFleet(recorder, router=TracedRouter(recorder),
                            selection_cache=cache, telemetry=telemetry)
        zoo = ModelZoo()
        for device in DEVICES:
            fleet.add_instance(TracedOpenEI(
                recorder, emulated if emulated is not None else {},
                device_name=device, zoo=zoo, selection_cache=cache,
            ))
    for instance in fleet:
        register_all(instance.openei, seed=0)
    return fleet


def record_camera_series(fleet: EdgeFleet) -> None:
    """``data_read``'s fixed series: recorded on replica 0, no live sensor behind it."""
    store = fleet.instances[0].openei.data_store
    for reading in camera_readings():
        store.record(reading)


def _publish(registry: ModelRegistry, version: int):
    """v1 is the baseline build; v2 retrains only the classifier head (a small delta)."""
    if version == 1:
        model = build_lenet((16, 16, 1), 3, seed=0, name=MODEL)
        base, accuracy = None, 0.90
    else:
        model = registry.pull(MODEL, 1)
        head = [layer for layer in model.layers if layer.param_count() > 0][-1]
        head.params["W"][...] *= 1.01
        base, accuracy = f"{MODEL}@1", 0.93
    return registry.publish(
        MODEL, model, task="image-classification", input_shape=(16, 16, 1),
        scenario=CLASSIFY[0], base=base, accuracy=accuracy,
    )


class ControlPlane:
    """The managed stack's durable half: journal, registry, both controllers, a ticker.

    The rollout controller owns ``safety/classify``'s handler; the
    adaptive controller holds a non-violating SLO policy over the same
    key and only watches its telemetry windows (it never registers a
    handler, so the two cannot overwrite each other).  A timer thread
    runs ``check_all()`` and ``step()`` every 100 ms beside the traffic.
    """

    POLICY = RolloutPolicy(
        requirement=ALEMRequirement(min_accuracy=0.8), min_samples=3, healthy_checks=2,
    )

    def __init__(self, workdir: Path, recorder: Optional[SpanRecorder]) -> None:
        self.workdir = workdir
        self.store = BlobStore(workdir / "store")
        wal_path = workdir / "control.wal"
        self.journal = (ControlPlaneJournal(wal_path) if recorder is None
                        else TracedJournal(recorder, wal_path))
        self.registry = ModelRegistry(store=self.store, journal=self.journal)
        if recorder is None:
            self.telemetry = ALEMTelemetry(window_size=8, journal=self.journal)
        else:
            self.telemetry = TracedTelemetry(recorder, window_size=8, journal=self.journal)
        self.rollout: Optional[RolloutController] = None
        self.adaptive: Optional[AdaptiveController] = None
        self.check_ns: List[int] = []
        self.step_ns: List[int] = []
        self.canary_at: Optional[float] = None
        self.canary_to_promote_s = 0.0
        self._stop = threading.Event()
        self._ticker = threading.Thread(target=self._tick_loop, name="bench-control", daemon=True)

    def attach(self, fleet: EdgeFleet) -> None:
        """Deploy baseline v1 fleet-wide and put both controllers in charge."""
        _publish(self.registry, 1)
        self.rollout = RolloutController(fleet, self.registry, journal=self.journal)
        self.rollout.deploy(*CLASSIFY, MODEL)
        for instance in fleet:
            instance.openei.capability_evaluator.set_accuracy(MODEL, 0.90)
        self.adaptive = AdaptiveController(fleet, journal=self.journal)
        self.adaptive.add_policy(SLOPolicy(
            scenario=CLASSIFY[0], algorithm=CLASSIFY[1], task="image-classification",
            requirement=ALEMRequirement(min_accuracy=0.5, max_latency_s=1.0),
            target=OptimizationTarget.ACCURACY, min_samples=4,
        ))
        self._ticker.start()

    def _tick_loop(self) -> None:
        clock = time.perf_counter_ns
        while not self._stop.wait(TICK_S):
            t0 = clock()
            self.adaptive.check_all()
            t1 = clock()
            events = self.rollout.step()
            t2 = clock()
            self.check_ns.append(t1 - t0)
            self.step_ns.append(t2 - t1)
            if self.canary_at is not None and any(e.kind == "promote" for e in events):
                self.canary_to_promote_s = time.perf_counter() - self.canary_at

    def begin_canary(self) -> None:
        """Publish v2 and stage it on one replica; the ticker promotes it."""
        _publish(self.registry, 2)
        self.canary_at = time.perf_counter()
        self.rollout.begin(*CLASSIFY, policy=self.POLICY)

    def close(self) -> None:
        self._stop.set()
        if self._ticker.is_alive():
            self._ticker.join(timeout=5.0)
        self.journal.close()

    def time_recovery(self) -> Dict[str, float]:
        """Replay this run's journal into fresh controllers, five times (after ``close``)."""
        replays_ms: List[float] = []
        events = 0
        for _ in range(RECOVERY_REPLAYS):
            journal = ControlPlaneJournal(self.workdir / "control.wal")
            try:
                registry = ModelRegistry.recover(self.store, journal)
                telemetry = ALEMTelemetry(window_size=8)
                fleet = EdgeFleet.deploy(DEVICES, zoo=ModelZoo(), telemetry=telemetry)
                rollout = RolloutController(fleet, registry, journal=None)
                adaptive = AdaptiveController(fleet)
                t0 = time.perf_counter()
                report = recover_control_plane(
                    fleet, registry, journal, rollout=rollout, adaptive=adaptive,
                    telemetry=telemetry,
                )
                replays_ms.append((time.perf_counter() - t0) * 1e3)
                events = report.events_replayed
            finally:
                journal.close()
        return {"replay_ms": median(replays_ms), "events": events}
