"""Tests for tasks, resources, the priority scheduler, EdgeRuntime and migration."""

import pytest

from repro.exceptions import ConfigurationError, MigrationError, ResourceExhaustedError
from repro.hardware import get_device
from repro.hardware.device import LAN_LINK, NetworkLink
from repro.runtime import (
    EdgeRuntime,
    MigrationPlanner,
    PriorityScheduler,
    ResourceAccountant,
    Task,
    TaskPriority,
    TaskState,
)
from repro.runtime.scheduler import promote_to_realtime


# -- tasks --------------------------------------------------------------------

def test_task_defaults_and_ids_unique():
    first = Task("a", compute_seconds=1.0)
    second = Task("b", compute_seconds=1.0)
    assert first.task_id != second.task_id
    assert first.state is TaskState.PENDING
    assert first.priority is TaskPriority.NORMAL
    assert first.completion_time is None and first.met_deadline is None


def test_task_validation():
    with pytest.raises(ConfigurationError):
        Task("bad", compute_seconds=-1.0)
    with pytest.raises(ConfigurationError):
        Task("bad", compute_seconds=1.0, deadline_s=0.0)


def test_promote_to_realtime():
    task = promote_to_realtime(Task("urgent", compute_seconds=0.1))
    assert task.priority is TaskPriority.REALTIME


# -- resources -------------------------------------------------------------------

def test_resource_accountant_memory_reserve_release():
    accountant = ResourceAccountant(get_device("raspberry-pi-3"))
    accountant.reserve_memory(1, 512.0)
    assert accountant.usage().memory_mb == pytest.approx(512.0)
    accountant.release_memory(1)
    assert accountant.usage().memory_mb == pytest.approx(0.0)


def test_resource_accountant_rejects_overflow():
    accountant = ResourceAccountant(get_device("raspberry-pi-3"))
    with pytest.raises(ResourceExhaustedError):
        accountant.reserve_memory(1, 2048.0)
    with pytest.raises(ResourceExhaustedError):
        accountant.store(1e9)
    with pytest.raises(ResourceExhaustedError):
        accountant.charge_energy(-1.0)


def test_resource_usage_utilization_fields():
    accountant = ResourceAccountant(get_device("raspberry-pi-4"))
    accountant.reserve_memory(1, 1024.0)
    accountant.store(100.0)
    accountant.charge_energy(5.0)
    usage = accountant.usage()
    assert usage.memory_utilization == pytest.approx(0.25)
    assert usage.storage_utilization > 0
    assert usage.energy_joules == 5.0
    accountant.free(100.0)
    assert accountant.usage().storage_mb == 0.0


# -- scheduler ----------------------------------------------------------------------

def _scheduler(device="raspberry-pi-4"):
    return PriorityScheduler(ResourceAccountant(get_device(device)))


def test_scheduler_runs_in_priority_order():
    scheduler = _scheduler()
    background = Task("background", compute_seconds=1.0, priority=TaskPriority.BACKGROUND)
    urgent = Task("urgent", compute_seconds=0.1, priority=TaskPriority.REALTIME)
    normal = Task("normal", compute_seconds=0.5, priority=TaskPriority.NORMAL)
    for task in (background, normal, urgent):
        scheduler.submit(task)
    executed = scheduler.run_all()
    assert [t.name for t in executed] == ["urgent", "normal", "background"]
    assert scheduler.pending_count() == 0


def test_scheduler_fifo_within_priority():
    scheduler = _scheduler()
    first = scheduler.submit(Task("first", compute_seconds=0.1))
    second = scheduler.submit(Task("second", compute_seconds=0.1))
    executed = scheduler.run_all()
    assert [t.name for t in executed] == ["first", "second"]
    assert first.finished_at <= second.started_at


def test_scheduler_clock_advances_and_completion_times():
    scheduler = _scheduler()
    first = scheduler.submit(Task("a", compute_seconds=2.0))
    second = scheduler.submit(Task("b", compute_seconds=3.0))
    scheduler.run_all()
    assert scheduler.clock == pytest.approx(5.0)
    assert first.completion_time == pytest.approx(2.0)
    assert second.completion_time == pytest.approx(5.0)


def test_scheduler_deadline_miss_rate():
    scheduler = _scheduler()
    scheduler.submit(Task("slowblocker", compute_seconds=10.0, priority=TaskPriority.HIGH))
    tight = scheduler.submit(Task("tight", compute_seconds=0.1, deadline_s=1.0))
    scheduler.run_all()
    assert tight.met_deadline is False


def test_scheduler_realtime_meets_deadline_under_load():
    """The real-time ML module's guarantee: urgent tasks jump the queue."""
    scheduler = _scheduler()
    for index in range(5):
        scheduler.submit(Task(f"bg{index}", compute_seconds=2.0, priority=TaskPriority.BACKGROUND))
    urgent = Task("urgent", compute_seconds=0.1, deadline_s=0.5, priority=TaskPriority.REALTIME)
    scheduler.submit(urgent)
    scheduler.run_all()
    assert urgent.met_deadline is True


def test_scheduler_rejects_submission_in_the_past():
    scheduler = _scheduler()
    scheduler.submit(Task("a", compute_seconds=1.0))
    scheduler.run_all()
    from repro.exceptions import SchedulingError

    with pytest.raises(SchedulingError):
        scheduler.submit(Task("late", compute_seconds=1.0), at_time=0.0)


def test_scheduler_marks_unschedulable_task_failed():
    scheduler = _scheduler("raspberry-pi-3")
    huge = Task("huge", compute_seconds=0.1, memory_mb=10_000.0)
    scheduler.submit(huge)
    scheduler.run_all()
    assert huge.state is TaskState.FAILED
    assert huge in scheduler.failed


# -- EdgeRuntime ---------------------------------------------------------------------

def test_edge_runtime_install_and_run_inference():
    runtime = EdgeRuntime(get_device("raspberry-pi-4"))
    runtime.install_model("mobilenet", size_mb=4.0)
    assert "mobilenet" in runtime.installed_models
    task = runtime.run_inference("infer/mobilenet", latency_s=0.05, memory_mb=30.0, energy_j=0.2)
    assert task.state is TaskState.COMPLETED
    assert runtime.usage().energy_joules == pytest.approx(0.2)
    runtime.uninstall_model("mobilenet")
    assert "mobilenet" not in runtime.installed_models


def test_edge_runtime_describe_contains_status():
    runtime = EdgeRuntime(get_device("jetson-tx2"), name="tx2-runtime")
    description = runtime.describe()
    assert description["runtime"] == "tx2-runtime"
    assert description["device"]["name"] == "jetson-tx2"
    assert description["pending_tasks"] == 0


# -- migration ------------------------------------------------------------------------

def test_migration_prefers_much_faster_peer():
    local = EdgeRuntime(get_device("raspberry-pi-3"), name="pi")
    peer = EdgeRuntime(get_device("edge-server"), name="server")
    planner = MigrationPlanner(local)
    planner.connect(peer, LAN_LINK)
    task = Task("train", compute_seconds=100.0, kind="training")
    decision = planner.plan(task, payload_bytes=1e6)
    assert decision.migrate and decision.target_runtime == "server"
    assert decision.speedup > 1.0


def test_migration_keeps_local_when_link_too_slow():
    local = EdgeRuntime(get_device("raspberry-pi-3"), name="pi")
    peer = EdgeRuntime(get_device("edge-server"), name="server")
    slow_link = NetworkLink("slow", bandwidth_mbps=0.01, latency_ms=5000.0)
    planner = MigrationPlanner(local)
    planner.connect(peer, slow_link)
    decision = planner.plan(Task("quick", compute_seconds=0.05), payload_bytes=1e7)
    assert not decision.migrate


def test_migration_execute_runs_remotely_and_marks_state():
    local = EdgeRuntime(get_device("raspberry-pi-3"), name="pi")
    peer = EdgeRuntime(get_device("edge-server"), name="server")
    planner = MigrationPlanner(local)
    planner.connect(peer, LAN_LINK)
    original = Task("heavy", compute_seconds=50.0)
    executed = planner.execute(original, payload_bytes=1e5)
    assert original.state is TaskState.MIGRATED
    assert executed.state is TaskState.COMPLETED
    assert executed.compute_seconds < original.compute_seconds


def test_migration_unknown_peer_raises():
    planner = MigrationPlanner(EdgeRuntime(get_device("raspberry-pi-3")))
    with pytest.raises(MigrationError):
        planner.estimate_remote_seconds(Task("x", compute_seconds=1.0), 10.0, "ghost")


# -- scheduler regressions (PR 2) ---------------------------------------------------

def test_scheduler_future_realtime_does_not_inflate_eligible_tasks():
    """A REALTIME task queued for a future at_time must not run before
    already-eligible work and drag the clock forward (regression)."""
    scheduler = _scheduler()
    low = scheduler.submit(Task("low", compute_seconds=1.0, priority=TaskPriority.BACKGROUND))
    urgent = scheduler.submit(
        Task("urgent", compute_seconds=0.1, priority=TaskPriority.REALTIME), at_time=5.0
    )
    executed = scheduler.run_all()
    assert [t.name for t in executed] == ["low", "urgent"]
    # the low-priority task completes at its true virtual time...
    assert low.completion_time == pytest.approx(1.0)
    # ...and the realtime task starts exactly when it arrives
    assert urgent.started_at == pytest.approx(5.0)
    assert scheduler.clock == pytest.approx(5.1)


def test_scheduler_advances_clock_to_earliest_submission_when_idle():
    scheduler = _scheduler()
    late = scheduler.submit(Task("late", compute_seconds=0.5), at_time=10.0)
    later = scheduler.submit(Task("later", compute_seconds=0.5), at_time=20.0)
    first = scheduler.run_next()
    assert first is late and late.started_at == pytest.approx(10.0)
    assert scheduler.clock == pytest.approx(10.5)
    scheduler.run_next()
    assert later.started_at == pytest.approx(20.0)


def test_scheduler_future_task_becomes_eligible_as_clock_advances():
    scheduler = _scheduler()
    scheduler.submit(Task("bg", compute_seconds=3.0, priority=TaskPriority.BACKGROUND))
    urgent = scheduler.submit(
        Task("urgent", compute_seconds=0.1, priority=TaskPriority.REALTIME), at_time=1.0
    )
    tail = scheduler.submit(Task("tail", compute_seconds=1.0, priority=TaskPriority.BACKGROUND))
    executed = scheduler.run_all()
    # bg runs 0..3; by then urgent (arrived at 1.0) outranks the queued tail
    assert [t.name for t in executed] == ["bg", "urgent", "tail"]
    assert urgent.started_at == pytest.approx(3.0)


def test_scheduler_does_not_swallow_unexpected_exceptions(monkeypatch):
    scheduler = _scheduler()
    scheduler.submit(Task("doomed", compute_seconds=0.1))

    def broken_reserve(owner_id, memory_mb):
        raise RuntimeError("accountant bug")

    monkeypatch.setattr(scheduler.accountant, "reserve_memory", broken_reserve)
    with pytest.raises(RuntimeError):
        scheduler.run_next()


def test_scheduler_run_all_reports_failed_tasks():
    scheduler = _scheduler("raspberry-pi-3")
    ok = scheduler.submit(Task("ok", compute_seconds=0.1, memory_mb=10.0))
    huge = scheduler.submit(Task("huge", compute_seconds=0.1, memory_mb=10_000.0))
    executed = scheduler.run_all()
    assert ok in executed and huge in executed
    assert huge.state is TaskState.FAILED and huge in scheduler.failed


def test_scheduler_run_all_strict_raises_after_draining():
    from repro.exceptions import SchedulingError

    scheduler = _scheduler("raspberry-pi-3")
    scheduler.submit(Task("ok", compute_seconds=0.1, memory_mb=10.0))
    scheduler.submit(Task("huge", compute_seconds=0.1, memory_mb=10_000.0))
    with pytest.raises(SchedulingError, match="huge"):
        scheduler.run_all(strict=True)
    assert scheduler.pending_count() == 0
