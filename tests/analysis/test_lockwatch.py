"""Unit tests for the runtime lock-order detector.

The ABBA test builds a *real* two-lock cycle — thread 1 takes A then B,
thread 2 takes B then A — sequentially, so the test itself cannot
deadlock, and asserts the detector reports the cycle with both witness
stacks.
"""

from __future__ import annotations

import os
import threading
import traceback
import types

import pytest

from repro.analysis import lockwatch
from repro.clock import ManualClock
from repro.exceptions import LockContractError

# lockwatch only instruments locks allocated from files under /repro/,
# and the factory call resolves the *caller* frame — so the tests allocate
# through a shim compiled on the fly under a file name in repro's tree,
# which gives each lock a stable allocation site.
_LOCKFORGE_SOURCE = """
import threading

def make_locks():
    lock_a = threading.Lock()
    lock_b = threading.Lock()
    return lock_a, lock_b

def make_rlock():
    return threading.RLock()

def make_condition():
    return threading.Condition()
"""
_lockforge = types.ModuleType("_lockforge")
exec(compile(_LOCKFORGE_SOURCE, os.path.join(os.sep, "shim", "repro", "_lockforge.py"), "exec"),
     _lockforge.__dict__)


def test_abba_cycle_detected_with_both_witness_stacks():
    with lockwatch.watched() as watch:
        lock_a, lock_b = _lockforge.make_locks()
        assert watch.locks_created == 2

        def ab():
            with lock_a:
                with lock_b:
                    pass

        def ba():
            with lock_b:
                with lock_a:
                    pass

        first = threading.Thread(target=ab, name="thread-ab")
        first.start(); first.join()
        second = threading.Thread(target=ba, name="thread-ba")
        second.start(); second.join()

        cycle = watch.find_cycle()
        assert cycle is not None and len(cycle) == 2
        threads = {witness.thread for witness in cycle}
        assert threads == {"thread-ab", "thread-ba"}
        for witness in cycle:
            assert witness.holding_stack, "missing the holding witness stack"
            assert witness.acquiring_stack, "missing the acquiring witness stack"

        with pytest.raises(LockContractError) as excinfo:
            watch.assert_clean()
        message = str(excinfo.value)
        assert "lock-order cycle" in message
        assert "thread-ab" in message and "thread-ba" in message
        assert "held since" in message and "acquired at" in message


def test_consistent_order_is_clean():
    with lockwatch.watched() as watch:
        lock_a, lock_b = _lockforge.make_locks()
        for _ in range(3):
            with lock_a:
                with lock_b:
                    pass
        watch.assert_clean()


def test_reentrant_rlock_is_not_a_self_cycle():
    with lockwatch.watched() as watch:
        rlock = _lockforge.make_rlock()
        with rlock:
            with rlock:
                pass
        watch.assert_clean()


def test_hold_budget_violation_reports_site_and_stack():
    clock = ManualClock()  # made outside the window: its own lock stays real
    with lockwatch.watched(budget_s=0.01, clock=clock) as watch:
        lock, _ = _lockforge.make_locks()
        with lock:
            clock.advance(0.05)  # the deliberate over-budget hold
        with pytest.raises(LockContractError) as excinfo:
            watch.assert_clean()
        assert "hold budget" in str(excinfo.value)
        assert lock.site in str(excinfo.value)


def test_condition_wait_does_not_count_against_budget():
    clock = ManualClock()

    with lockwatch.watched(budget_s=0.05, clock=clock) as watch:
        cond = _lockforge.make_condition()
        woken = []

        def pass_time_while_parked():
            with cond:
                pass  # only reachable once the waiter released cond in wait()
            clock.advance(0.2)
            with cond:
                woken.append(True)
                cond.notify()

        with cond:
            # started under cond, so the mover's first acquire proves the
            # waiter is parked; parked for 4x the budget: wait releases
            # the lock, so the recorded hold spans stay at zero
            mover = threading.Thread(target=pass_time_while_parked)
            mover.start()
            while not woken:
                cond.wait()
        mover.join(timeout=10.0)
        assert not mover.is_alive() and clock.monotonic() == pytest.approx(0.2)
        watch.assert_clean()


def test_stdlib_and_foreign_locks_stay_uninstrumented():
    with lockwatch.watched() as watch:
        foreign = threading.Lock()          # allocated from tests/, not repro
        assert type(foreign) is not lockwatch._WatchedLock
        import queue

        q = queue.Queue()                   # stdlib-internal allocation
        assert type(q.mutex) is not lockwatch._WatchedLock
        assert watch.locks_created == 0


def test_witness_stacks_contain_no_instrumentation_frames():
    """Regression: witness/hold stacks used to lead with frames from the
    instrumented wrapper itself (lockwatch.py, threading.py, contextlib.py
    for ``with`` statements), burying the caller line that actually took
    the lock.  Every recorded stack must point at caller code only."""
    clock = ManualClock()
    with lockwatch.watched(budget_s=0.005, clock=clock) as watch:
        lock_a, lock_b = _lockforge.make_locks()
        cond = _lockforge.make_condition()

        def ab():
            with lock_a:          # with-statement path (contextlib-free but
                with lock_b:      # enters through the wrapper's __enter__)
                    clock.advance(0.02)  # over budget: provokes a HoldRecord

        def ba():
            with lock_b:
                lock_a.acquire()  # direct acquire/release path
                lock_a.release()

        first = threading.Thread(target=ab, name="stacks-ab")
        first.start(); first.join()
        second = threading.Thread(target=ba, name="stacks-ba")
        second.start(); second.join()
        with cond:
            # the post-wait reacquire runs through threading's
            # _acquire_restore — its stack must still surface this line
            # (a zero timeout takes the same release/reacquire path)
            cond.wait(timeout=0)

        cycle = watch.find_cycle()
        assert cycle is not None
        stacks = [w.holding_stack for w in cycle]
        stacks += [w.acquiring_stack for w in cycle]
        stacks += [record.stack for record in watch.hold_violations(0.0)]
        assert len(stacks) >= 5
        assert all(stacks), "every witness must carry a non-empty stack"
        for stack in stacks:
            for line in stack:
                path = os.path.normcase(os.path.realpath(line.rsplit(":", 1)[0]))
                assert path not in lockwatch._INTERNAL_FILES, line
        # trimming must leave the *caller* line, i.e. this test file
        here = os.path.basename(__file__)
        for stack in stacks:
            assert any(here in line for line in stack), stack


def test_fully_internal_acquisition_still_yields_a_witness(monkeypatch):
    """When every frame is instrumentation-internal (e.g. a lock driven
    from a ``threading.Timer`` run loop), trimming must fall back to the
    untrimmed frames rather than record an empty — useless — witness."""
    everything = {
        os.path.normcase(os.path.realpath(frame.filename))
        for frame in traceback.extract_stack()
    }
    monkeypatch.setattr(
        lockwatch,
        "_INTERNAL_FILES",
        frozenset(everything | set(lockwatch._INTERNAL_FILES)),
    )
    stack = lockwatch._format_stack()
    assert stack, "an all-internal acquisition still needs a location witness"


def test_factories_are_restored_after_the_window():
    original_lock, original_rlock = threading.Lock, threading.RLock
    with lockwatch.watched():
        pass
    assert threading.Lock is original_lock
    assert threading.RLock is original_rlock
