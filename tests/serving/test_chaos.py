"""Chaos suite: the serving fleet under trace-scheduled fault injection.

The acceptance contract of the open-loop harness PR: replaying a
deterministic trace through :class:`~repro.loadgen.OpenLoopHarness`
while its :class:`~repro.loadgen.FaultInjector` executes the trace's
fault plan, the fleet must

* survive a **mid-trace gateway kill** with zero failed client requests
  (replica failover + supervisor re-registration on the same address),
* **reselect** via the adaptive controller when an injected device
  slowdown violates the latency SLO — observable in ``/ei_status``,
* **auto-roll back** an in-flight canary whose replica is hit by an
  injected slowdown — again with zero dropped requests,
* **reject** injected malformed requests (4xx) without crashing a
  worker or polluting the real error ledger.

Control cycles (``check_all`` / ``step``) are pumped from the harness's
``on_response`` hook, i.e. from live worker threads — the way an
operator sidecar would run them — serialized by a test-local lock.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.apps import register_all
from repro.core import (
    ALEMRequirement,
    BlobStore,
    ControlPlaneJournal,
    ModelRegistry,
    ModelZoo,
    OptimizationTarget,
)
from repro.loadgen import (
    FaultInjector,
    FaultSpec,
    OpenLoopHarness,
    client_sender,
    constant_trace,
    poisson_trace,
)
from repro.nn.layers import Dense, ReLU, Softmax
from repro.nn.model import Sequential
from repro.serving import (
    ALEMTelemetry,
    AdaptiveController,
    EdgeFleet,
    GatewaySupervisor,
    LibEIClient,
    RolloutController,
    RolloutPolicy,
    RoutingPolicy,
    SLOPolicy,
    recover_control_plane,
)

FLEET = ["raspberry-pi-4", "jetson-tx2", "raspberry-pi-4", "jetson-tx2"]

#: Injected task accuracies for the adaptive scenario (device independent).
ACCURACIES = {"vgg-0.5x": 0.95, "lenet": 0.90, "mobilenet-0.5x": 0.80}
#: On raspberry-pi-4, vgg profiles at ~3.1 ms and lenet at ~2.0 ms, so this
#: SLO admits both nominally but only the small models at 1.5x slowdown.
MAX_LATENCY_S = 0.004

MODEL = "safety-classifier"


class SeqRouter(RoutingPolicy):
    """Route by the request's ``seq`` argument: replays route identically."""

    name = "seq"

    def choose(self, instances, request=None):
        self._require_instances(instances)
        seq = 0
        if request is not None and request.args:
            try:
                seq = int(request.args.get("seq", 0))
            except (TypeError, ValueError):
                seq = 0
        return instances[seq % len(instances)]


def publish_classifier(registry: ModelRegistry, accuracy: float, scale: float = 1.0,
                       base=None):
    model = Sequential(
        [Dense(6, 8, seed=0), ReLU(), Dense(8, 3, seed=1), Softmax()], name=MODEL
    )
    model.layers[2].params["W"][...] *= scale
    return registry.publish(
        MODEL, model, task="image-classification", input_shape=(6,),
        scenario="safety", base=base, accuracy=accuracy,
    )


def deploy_app_fleet(devices=FLEET, **fleet_kwargs):
    fleet = EdgeFleet.deploy(
        list(devices), zoo=ModelZoo(),
        telemetry=ALEMTelemetry(window_size=16), **fleet_kwargs
    )
    for instance in fleet:
        register_all(instance.openei, seed=0)
    return fleet


def serialized(pump):
    """Run a control cycle from worker threads one at a time."""
    lock = threading.Lock()

    def on_response(request, result):
        with lock:
            pump()

    return on_response


# -- gateway kill ------------------------------------------------------------------

def test_mid_trace_gateway_kill_survived_with_zero_failed_requests():
    """Kill one of two gateways mid-trace, re-register it later: the client
    fails over, the supervisor rebinds the original address, and not a
    single request in the open-loop replay fails."""
    trace = poisson_trace(
        duration_s=6.0, mean_rps=25.0, seed=99, name="chaos-kill"
    ).with_faults([
        FaultSpec(at_s=2.0, action="kill-gateway", target=0),
        FaultSpec(at_s=4.0, action="restart-gateway", target=0),
    ])

    fleet = deploy_app_fleet()
    with GatewaySupervisor(fleet, gateways=2) as supervisor:
        client = LibEIClient(supervisor.addresses, timeout_s=10.0)
        injector = FaultInjector(fleet=fleet, supervisor=supervisor, client=client)
        harness = OpenLoopHarness(
            client_sender(client), time_scale=0.05, max_workers=16,
            fault_injector=injector,
        )
        report = harness.run(trace)

        assert report.error_count == 0, report.overall.errors[:5]
        assert report.overall.completed == len(trace)
        assert supervisor.kills == 1 and supervisor.restarts == 1

        # re-registration, not just failover: the killed slot's original
        # address answers again all by itself
        revived = LibEIClient(supervisor.addresses[0], timeout_s=5.0)
        assert revived.status()["status"] == "ok"

    outcomes = [r["outcome"] for r in report.faults]
    assert outcomes == ["applied", "applied"]
    # the kill reported the address that went dark; the restart, the same one
    assert report.faults[0]["address"] == report.faults[1]["address"]


def test_rolling_gateway_kills_under_closed_loop_traffic_on_pooled_connections():
    """Four callers share one client (so every request rides a pooled
    keep-alive connection) while the two gateways are killed and
    re-registered in turn.  Whatever instant a kill lands in — connection
    idle, request line half read, handler running, response being
    written — the caller gets an answer: from the dying gateway if the
    request was already in its handler, from the survivor otherwise."""
    fleet = deploy_app_fleet(devices=FLEET[:2])
    failures = []
    answered = [0] * 4
    done = threading.Event()

    def caller(index: int, client: LibEIClient) -> None:
        seq = index
        while not done.is_set():
            try:
                body = client.call_algorithm("home", "power_monitor", {"seq": seq})
                assert body["status"] == "ok", body
            except Exception as exc:  # noqa: BLE001 - reported by the assert below
                failures.append(repr(exc))
                return
            answered[index] += 1
            seq += 4

    with GatewaySupervisor(fleet, gateways=2) as supervisor:
        with LibEIClient(supervisor.addresses, timeout_s=10.0) as client:
            callers = [threading.Thread(target=caller, args=(i, client)) for i in range(4)]
            for thread in callers:
                thread.start()
            try:
                for _ in range(3):
                    for slot in (0, 1):
                        supervisor.kill(slot)
                        supervisor.restart(slot)
                        # traffic kept flowing, and no failover pass that saw
                        # this slot down is still running when the other slot
                        # goes: a caller's second answer from here on belongs
                        # to a call that began after the restart
                        after_restart = list(answered)
                        give_up = time.monotonic() + 10.0
                        while any(now < was + 2 for now, was in zip(answered, after_restart)):
                            assert not failures and time.monotonic() < give_up
                            time.sleep(0.005)
            finally:
                done.set()
                for thread in callers:
                    thread.join(timeout=15.0)
            assert not any(thread.is_alive() for thread in callers)
    assert failures == []
    assert supervisor.kills == 6 and supervisor.restarts == 6
    assert all(count > 0 for count in answered)


# -- adaptive reselection under slowdown -------------------------------------------

def test_injected_slowdown_triggers_adaptive_reselection_in_ei_status(image_zoo):
    """An emulated thermal throttle lands mid-trace; the adaptive controller
    (pumped from live response threads) must confirm the SLO violation and
    hot-swap the model — and ``/ei_status`` must show the reselection."""
    fleet = EdgeFleet.deploy(
        ["raspberry-pi-4"], zoo=image_zoo, telemetry=ALEMTelemetry(window_size=8)
    )
    for name, accuracy in ACCURACIES.items():
        fleet.instances[0].openei.capability_evaluator.set_accuracy(name, accuracy)
    controller = AdaptiveController(fleet)
    controller.add_policy(SLOPolicy(
        scenario="safety", algorithm="classify", task="image-classification",
        requirement=ALEMRequirement(min_accuracy=0.5, max_latency_s=MAX_LATENCY_S),
        target=OptimizationTarget.ACCURACY, min_samples=3,
    ))
    controller.register_handlers()
    assert controller.deployments()[0].model_name == "vgg-0.5x"

    trace = constant_trace(
        duration_s=4.0, rps=15.0, seed=7, name="chaos-slowdown",
        scenario_mix={"safety": 1.0}, algorithms={"safety": "classify"},
    ).with_faults([
        # 1.5x: vgg (~3.1 ms) blows the 4 ms SLO, lenet (~2 ms) still fits
        FaultSpec(at_s=2.0, action="slowdown",
                  target=fleet.instances[0].instance_id, factor=1.5),
    ])

    with GatewaySupervisor(fleet, gateways=1) as supervisor:
        client = LibEIClient(supervisor.addresses, timeout_s=10.0)
        injector = FaultInjector(fleet=fleet, supervisor=supervisor, client=client)
        harness = OpenLoopHarness(
            client_sender(client), time_scale=0.1, max_workers=8,
            fault_injector=injector,
            on_response=serialized(controller.check_all),
        )
        report = harness.run(trace)

        assert report.error_count == 0, report.overall.errors[:5]
        assert report.overall.completed == len(trace)

        # the reselection is observable over the wire, exactly as an
        # operator would see it
        status = client.status()["openei"]
        assert status["adaptive"]["reselections"] >= 1
        events = status["adaptive"]["recent_events"]
        assert any(e["outcome"] == "reselected" for e in events)
        assert status["adaptive"]["deployments"][0]["model"] == "lenet"
        assert status["selection_cache"]["invalidations"] >= 1

    assert controller.stats.reselections >= 1
    assert report.faults[0]["outcome"] == "applied"
    assert report.faults[0]["factor"] == pytest.approx(1.5)


# -- rollout auto-rollback under slowdown ------------------------------------------

def test_rollout_auto_rolls_back_when_canary_replica_slows_down():
    """Canary v2 on one replica, then inject a 10x slowdown on that exact
    replica mid-trace: the rollout controller must confirm the latency
    violation against its policy and roll the canary back to v1 — while
    the open-loop traffic loses nothing."""
    registry = ModelRegistry()
    publish_classifier(registry, accuracy=0.90)
    fleet = EdgeFleet.deploy(
        FLEET, zoo=ModelZoo(), telemetry=ALEMTelemetry(window_size=16),
        policy=SeqRouter(),
    )
    for instance in fleet:
        register_all(instance.openei, seed=0)
    rollout = RolloutController(fleet, registry)
    rollout.deploy("safety", "classify", MODEL)
    publish_classifier(registry, accuracy=0.93, scale=1.01, base=f"{MODEL}@1")

    # pin the canary so the latency bar is 3x *that replica's* healthy
    # baseline — which a 10x slowdown violates and healthy traffic never does
    canary_id = fleet.instances[0].instance_id
    baseline_s = next(
        e for e in rollout.serving("safety", "classify")
        if e.instance_id == canary_id
    ).expected.latency_s
    rollout.begin("safety", "classify", canary=canary_id, policy=RolloutPolicy(
        requirement=ALEMRequirement(min_accuracy=0.8,
                                    max_latency_s=3.0 * baseline_s),
        min_samples=3,
        healthy_checks=10_000,  # never promotes inside this trace
    ))

    trace = constant_trace(
        duration_s=8.0, rps=20.0, seed=13, name="chaos-rollback",
        scenario_mix={"safety": 1.0}, algorithms={"safety": "classify"},
    ).with_faults([
        FaultSpec(at_s=3.0, action="slowdown", target=canary_id, factor=10.0),
    ])

    with GatewaySupervisor(fleet, gateways=1) as supervisor:
        client = LibEIClient(supervisor.addresses, timeout_s=10.0)
        injector = FaultInjector(fleet=fleet, supervisor=supervisor, client=client)
        harness = OpenLoopHarness(
            client_sender(client), time_scale=0.05, max_workers=16,
            fault_injector=injector,
            on_response=serialized(rollout.step),
        )
        report = harness.run(trace)

        assert report.error_count == 0, report.overall.errors[:5]
        assert report.overall.completed == len(trace)
        status = client.status()["openei"]["rollout"]
        assert status["rollbacks"] == 1 and status["promotions"] == 0

    state = rollout.describe()["rollouts"]["safety/classify"]
    assert state["stage"] == "rolled-back"
    # every replica — the faulted canary included — serves v1 again
    assert all(
        entry.version.ref == f"{MODEL}@1"
        for entry in rollout.serving("safety", "classify")
    )


# -- malformed-request injection ---------------------------------------------------

def test_malformed_request_injection_is_rejected_without_collateral():
    """Garbage paths fired mid-trace must come back as clean 4xx rejections:
    no worker crash, no entry in the real traffic's error ledger, and the
    gateway keeps serving."""
    trace = constant_trace(
        duration_s=2.0, rps=20.0, seed=3, name="chaos-malformed",
    ).with_faults([
        FaultSpec(at_s=0.5, action="malformed-request"),
        FaultSpec(at_s=1.5, action="malformed-request"),
    ])

    fleet = deploy_app_fleet(devices=FLEET[:1])
    with GatewaySupervisor(fleet, gateways=1) as supervisor:
        client = LibEIClient(supervisor.addresses, timeout_s=10.0)
        injector = FaultInjector(fleet=fleet, supervisor=supervisor, client=client)
        harness = OpenLoopHarness(
            client_sender(client), time_scale=0.05, max_workers=8,
            fault_injector=injector,
        )
        report = harness.run(trace)

        assert report.error_count == 0, report.overall.errors[:5]
        assert report.overall.completed == len(trace)
        assert client.status()["status"] == "ok"

    malformed = [r for r in report.faults if r["action"] == "malformed-request"]
    assert len(malformed) == 2
    assert all(r["outcome"] == "applied" and r["rejected"] for r in malformed)


# -- restart into recovery ---------------------------------------------------------

def test_killed_replica_restarts_into_recovery_and_resumes_the_same_claim(tmp_path):
    """The durable-control-plane acceptance scenario: kill a gateway hard
    mid-canary under live trace traffic, throw the whole process state
    away, and restart from nothing but the blob store and the WAL.  The
    recovered fleet must converge to the *identical* rollout state (same
    fingerprints, same canary claim), resolve that one claim exactly once
    (no double-promote), and neither life drops a single request."""
    store_root = tmp_path / "store"
    wal_path = tmp_path / "control.wal"

    # ---- life 1: publish durably, deploy v1, canary v2, die mid-canary ----
    journal = ControlPlaneJournal(wal_path)
    registry = ModelRegistry(store=BlobStore(store_root), journal=journal)
    publish_classifier(registry, accuracy=0.90)
    publish_classifier(registry, accuracy=0.93, scale=1.01, base=f"{MODEL}@1")

    fleet = EdgeFleet.deploy(
        FLEET, zoo=ModelZoo(),
        telemetry=ALEMTelemetry(window_size=16, journal=journal),
        policy=SeqRouter(),
    )
    rollout = RolloutController(fleet, registry, journal=journal, lease_ttl_s=300.0)
    rollout.deploy("safety", "classify", MODEL, version=1)
    rollout.begin("safety", "classify", version=2, policy=RolloutPolicy(
        requirement=ALEMRequirement(min_accuracy=0.8),
        min_samples=3, healthy_checks=2,
    ))
    pre_crash = rollout.describe()["rollouts"]["safety/classify"]
    pre_crash_serving = {
        e.instance_id: e.version.fingerprint
        for e in rollout.serving("safety", "classify")
    }
    v1_bytes = registry.pull_bytes(MODEL, 1)
    v2_bytes = registry.pull_bytes(MODEL, 2)

    # no step() pumping in this life: the claim is mid-flight when the
    # replica dies — exactly the leaked-claim window the lease fix covers
    trace = constant_trace(
        duration_s=4.0, rps=20.0, seed=21, name="chaos-crash-recovery",
        scenario_mix={"safety": 1.0}, algorithms={"safety": "classify"},
    ).with_faults([
        FaultSpec(at_s=2.0, action="kill-gateway", target=0),  # never restarted
    ])
    with GatewaySupervisor(fleet, gateways=2) as supervisor:
        # retries=2: a request racing the kill instant can lose on both
        # addresses in one pass (refused on the closed socket, reset on
        # the in-flight one); extra passes turn that into a latency bump
        # on the surviving gateway instead of an error.
        client = LibEIClient(
            supervisor.addresses, timeout_s=10.0, retries=2, backoff_s=0.05
        )
        injector = FaultInjector(fleet=fleet, supervisor=supervisor, client=client)
        harness = OpenLoopHarness(
            client_sender(client), time_scale=0.05, max_workers=16,
            fault_injector=injector,
        )
        report = harness.run(trace)
        assert report.error_count == 0, report.overall.errors[:5]
        assert report.overall.completed == len(trace)
    journal.close()  # kill -9 closes the fd; the WAL needs no clean shutdown

    # ---- life 2: a brand-new process life from the on-disk state only ----
    journal2 = ControlPlaneJournal(wal_path)
    registry2 = ModelRegistry.recover(BlobStore(store_root), journal2)
    # acknowledged publishes survived byte-identically
    assert registry2.pull_bytes(MODEL, 1) == v1_bytes
    assert registry2.pull_bytes(MODEL, 2) == v2_bytes

    fleet2 = EdgeFleet.deploy(
        FLEET, zoo=ModelZoo(),
        telemetry=ALEMTelemetry(window_size=16, journal=journal2),
        policy=SeqRouter(),
    )
    rollout2 = RolloutController(fleet2, registry2, journal=journal2, lease_ttl_s=300.0)
    recovery = lambda: recover_control_plane(fleet2, registry2, journal2, rollout=rollout2)

    trace2 = constant_trace(
        duration_s=4.0, rps=20.0, seed=22, name="chaos-recovered",
        scenario_mix={"safety": 1.0}, algorithms={"safety": "classify"},
    )
    with GatewaySupervisor(fleet2, gateways=2, recovery=recovery) as supervisor2:
        # restart-into-recovery ran before the first request: the fleet
        # converged to the pre-crash rollout state — same target, same
        # canary replica, same per-replica fingerprints
        recovered = rollout2.describe()["rollouts"]["safety/classify"]
        assert recovered["stage"] == "canary"
        assert recovered["target"] == pre_crash["target"]
        assert recovered["canary"] == pre_crash["canary"]
        assert {
            e.instance_id: e.version.fingerprint
            for e in rollout2.serving("safety", "classify")
        } == pre_crash_serving

        client2 = LibEIClient(supervisor2.addresses, timeout_s=10.0)
        harness2 = OpenLoopHarness(
            client_sender(client2), time_scale=0.05, max_workers=16,
            on_response=serialized(rollout2.step),
        )
        report2 = harness2.run(trace2)
        assert report2.error_count == 0, report2.overall.errors[:5]
        assert report2.overall.completed == len(trace2)

    # the one recovered claim resolved exactly once, fleet-wide on v2
    assert rollout2.stats.promotions == 1
    assert rollout.stats.promotions == 0  # life 1 never got to promote
    assert all(
        entry.version.ref == f"{MODEL}@2"
        for entry in rollout2.serving("safety", "classify")
    )
    journal2.close()
