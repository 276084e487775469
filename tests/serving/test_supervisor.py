"""Tests for the gateway supervisor: kill, re-register, and the status surface."""

import threading

import pytest

from repro.apps import register_all
from repro.core.model_zoo import ModelZoo
from repro.exceptions import APIError, ConfigurationError, ResourceNotFoundError
from repro.serving import EdgeFleet, GatewaySupervisor, LibEIClient


@pytest.fixture()
def fleet():
    fleet = EdgeFleet.deploy(["raspberry-pi-4"], zoo=ModelZoo())
    for instance in fleet:
        register_all(instance.openei, seed=0)
    return fleet


def test_supervisor_starts_every_gateway_on_distinct_addresses(fleet):
    with GatewaySupervisor(fleet, gateways=2) as supervisor:
        assert len(supervisor) == 2
        assert len(set(supervisor.addresses)) == 2
        for index, address in enumerate(supervisor.addresses):
            assert supervisor.alive(index)
            assert LibEIClient(address).status()["status"] == "ok"
            assert supervisor.gateway(index).address == address


def test_kill_refuses_new_connections_and_restart_rebinds_same_address(fleet):
    with GatewaySupervisor(fleet, gateways=2) as supervisor:
        victim = supervisor.addresses[0]
        assert supervisor.kill(0) == victim
        assert not supervisor.alive(0) and supervisor.alive(1)
        with pytest.raises(APIError):
            LibEIClient(victim, timeout_s=1.0).status()
        # the survivor keeps serving the shared fleet
        assert LibEIClient(supervisor.addresses[1]).status()["status"] == "ok"

        gateway = supervisor.restart(0)
        assert gateway.address == victim  # re-registered, not relocated
        assert supervisor.alive(0)
        assert LibEIClient(victim).status()["status"] == "ok"
        assert supervisor.kills == 1 and supervisor.restarts == 1


def test_kill_and_restart_guard_their_slot_state(fleet):
    with GatewaySupervisor(fleet, gateways=1) as supervisor:
        with pytest.raises(ConfigurationError, match="already serving"):
            supervisor.restart(0)
        supervisor.kill(0)
        with pytest.raises(ResourceNotFoundError, match="already down"):
            supervisor.kill(0)
        with pytest.raises(ResourceNotFoundError, match="restart"):
            supervisor.gateway(0)


def test_slot_index_bounds_and_constructor_validation(fleet):
    with pytest.raises(ConfigurationError):
        GatewaySupervisor(fleet, gateways=0)
    with GatewaySupervisor(fleet, gateways=1) as supervisor:
        for bad in (-1, 1, 7):
            with pytest.raises(ResourceNotFoundError, match="no gateway slot"):
                supervisor.alive(bad)


def test_stop_is_idempotent_and_context_exit_kills_survivors(fleet):
    supervisor = GatewaySupervisor(fleet, gateways=2)
    with supervisor:
        address = supervisor.addresses[1]
        supervisor.kill(0)
    # exit stopped the survivor too; stop() again is a no-op
    supervisor.stop()
    with pytest.raises(APIError):
        LibEIClient(address, timeout_s=1.0).status()
    assert not supervisor.alive(0) and not supervisor.alive(1)
    # addresses stay published for clients configured with the full set
    assert len(supervisor.addresses) == 2


def test_describe_reports_slots_kills_and_restarts(fleet):
    with GatewaySupervisor(fleet, gateways=2) as supervisor:
        supervisor.kill(1)
        description = supervisor.describe()
        assert description["gateways"] == 2
        assert description["alive"] == 1
        assert description["kills"] == 1 and description["restarts"] == 0
        slots = {slot["index"]: slot for slot in description["slots"]}
        assert slots[0]["alive"] and not slots[1]["alive"]
        assert slots[1]["address"] == list(supervisor.addresses[1])


# -- keep-alive: kill must sever, not just stop listening -------------------------------

def count_dispatches(gateway) -> list:
    """Append to the returned list on every request the gateway's dispatcher serves."""
    served = []
    safe_handle_path = gateway.dispatcher.safe_handle_path

    def counting(path):
        served.append(path)
        return safe_handle_path(path)

    gateway.dispatcher.safe_handle_path = counting
    return served


def test_kill_severs_pooled_connections_and_restart_serves_the_same_client(fleet):
    with GatewaySupervisor(fleet, gateways=2) as supervisor:
        served_by_0 = count_dispatches(supervisor.gateway(0))
        with LibEIClient(supervisor.addresses, timeout_s=2.0) as client:
            for _ in range(3):
                assert client.status()["status"] == "ok"
            assert client._primary == 0 and len(client._idle[0]) == 1
            assert len(served_by_0) == 3

            supervisor.kill(0)
            # the client still holds its pooled connection to gateway 0; a
            # killed gateway must not answer on it
            for _ in range(3):
                assert client.status()["status"] == "ok"
            assert client._primary == 1
            assert len(served_by_0) == 3

            # same port, same client object, no reconfiguration
            replacement = supervisor.restart(0)
            served_by_new_0 = count_dispatches(replacement)
            supervisor.kill(1)
            for _ in range(3):
                assert client.status()["status"] == "ok"
            assert client._primary == 0
            assert len(served_by_new_0) == 3 and len(served_by_0) == 3


def test_request_in_flight_when_a_gateway_is_killed_still_gets_its_full_response(fleet):
    entered, release = threading.Event(), threading.Event()

    def slow(ei, args):
        entered.set()
        assert release.wait(timeout=10.0)
        return {"payload": "x" * 100_000, "seq": args["seq"]}

    for instance in fleet:
        instance.openei.register_algorithm("safety", "slow", slow)
    answers = []
    with GatewaySupervisor(fleet, gateways=1) as supervisor:
        with LibEIClient(supervisor.addresses, timeout_s=10.0) as client:
            assert client.status()["status"] == "ok"  # so the slow call rides a pooled connection
            caller = threading.Thread(
                target=lambda: answers.append(client.call_algorithm("safety", "slow", {"seq": 7})))
            caller.start()
            assert entered.wait(timeout=5.0)
            supervisor.kill(0)  # returns while the request is still inside its handler
            assert caller.is_alive() and answers == []
            release.set()
            caller.join(timeout=10.0)
            assert not caller.is_alive()
            (answer,) = answers
            assert answer["status"] == "ok"
            assert answer["result"]["payload"] == "x" * 100_000 and answer["result"]["seq"] == 7
            # the response said "Connection: close": nothing went back to the pool
            assert client._idle == [[]]
            with pytest.raises(APIError, match="unreachable"):
                client.status()
