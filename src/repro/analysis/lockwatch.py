"""Runtime lock-order and hold-budget detector.

While :func:`watched` is active, ``threading.Lock()`` / ``threading.RLock()``
allocations made *from repro code* return instrumented wrappers (stdlib
internals — queues, executors, logging — keep real locks, so the graph
only contains locks this codebase created).  Each wrapper records, per
thread, which locks were already held when it was acquired; those
held→acquired pairs form a global lock-order graph keyed by allocation
site (``file:line``), so every replica of a per-instance lock maps to
one node.

:meth:`LockWatch.assert_clean` then fails the run if

* the graph has a cycle — two threads that interleave those acquisition
  orders can deadlock (the classic ABBA); the error carries the witness
  stacks for *every* edge in the cycle (both the stack that was holding
  the first lock and the stack that acquired the second), or
* any lock was held longer than the hold budget — long hold spans are
  how blocking-under-lock bugs show up at runtime when the static rule
  cannot see through a call chain.

``Condition`` integrates transparently: its internal ``RLock()`` is
allocated from a ``threading.py`` frame on behalf of the repro caller
(the frame walk skips stdlib frames when attributing the site), and
``wait()`` goes through ``_release_save``/``_acquire_restore``, which
the wrapper forwards with bookkeeping — so time parked in ``wait()``
does not count against the hold budget.

Enable for a pytest run with ``REPRO_LOCKWATCH=1`` (see
tests/serving/conftest.py); tune the budget with
``REPRO_LOCKWATCH_BUDGET_S``.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.clock import SYSTEM_CLOCK, Clock
from repro.exceptions import LockContractError

#: The real factories, captured before any patching can replace them.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock

#: Path fragment that marks "this allocation belongs to the repro codebase".
_REPRO_FRAGMENT = os.sep + "repro" + os.sep
_THREADING_FILE = threading.__file__
_THIS_FILE = __file__

#: Files whose frames are instrumentation machinery, not caller code:
#: this module, the stdlib lock plumbing it wraps, and contextlib (the
#: ``watched()`` window and ``with`` statements routed through it).
#: Compared by normalized realpath so a symlinked checkout or a
#: ``./relative`` import cannot let wrapper frames leak into witnesses.
_INTERNAL_FILES = frozenset(
    os.path.normcase(os.path.realpath(name))
    for name in (_THIS_FILE, _THREADING_FILE, contextlib.__file__)
    if name
)


def _is_internal_frame(filename: str) -> bool:
    return os.path.normcase(os.path.realpath(filename)) in _INTERNAL_FILES


def _format_stack(limit: int = 14) -> List[str]:
    """The current stack as ``file:line in func`` lines, innermost last,
    with lockwatch's own wrapper frames (and the stdlib lock plumbing)
    trimmed off so every witness line points at caller code.

    If trimming would leave nothing — an acquisition driven entirely from
    ``threading`` internals, e.g. a ``Timer``'s run loop touching a
    repro-allocated event — the innermost untrimmed frames are kept
    instead: a witness that says *where* is better than a blank one.
    """
    frames = traceback.extract_stack()
    rendered = [
        (f"{frame.filename}:{frame.lineno} in {frame.name}", frame.filename)
        for frame in frames
    ]
    trimmed = [line for line, filename in rendered if not _is_internal_frame(filename)]
    if not trimmed:
        trimmed = [line for line, _ in rendered]
    return trimmed[-limit:]


def _allocation_site() -> Optional[str]:
    """``file:line`` of the first non-threading caller frame, or None if
    the allocation did not come from repro code."""
    frame = sys._getframe(2)
    while frame is not None and _is_internal_frame(frame.f_code.co_filename):
        frame = frame.f_back
    if frame is None:
        return None
    filename = frame.f_code.co_filename
    if _REPRO_FRAGMENT not in filename:
        return None
    return f"{filename}:{frame.f_lineno}"


@dataclass
class EdgeWitness:
    """First-seen evidence that some thread acquired ``target`` while
    already holding ``source``."""

    source: str
    target: str
    thread: str
    holding_stack: List[str] = field(default_factory=list)
    acquiring_stack: List[str] = field(default_factory=list)

    def render(self) -> str:
        holding = "\n".join(f"      {line}" for line in self.holding_stack)
        acquiring = "\n".join(f"      {line}" for line in self.acquiring_stack)
        return (
            f"  {self.source}  ->  {self.target}  (thread {self.thread!r})\n"
            f"    held since:\n{holding}\n"
            f"    acquired at:\n{acquiring}"
        )


@dataclass
class HoldRecord:
    """The longest observed hold span for one lock site."""

    site: str
    span_s: float
    thread: str
    stack: List[str] = field(default_factory=list)


class LockWatch:
    """Global lock-order graph + hold-span tracker for one watch window."""

    def __init__(self, budget_s: Optional[float] = None, clock: Clock = SYSTEM_CLOCK) -> None:
        self.budget_s = budget_s
        #: times hold spans
        self.clock = clock
        self._meta = _REAL_LOCK()
        #: source site -> target site -> first witness
        self._edges: Dict[str, Dict[str, EdgeWitness]] = {}
        #: thread id -> stack of (wrapper, acquire_monotonic, acquire_stack)
        self._held: Dict[int, List[Tuple["_WatchedLock", float, List[str]]]] = {}
        #: (thread id, wrapper id) -> re-entrant depth
        self._depths: Dict[Tuple[int, int], int] = {}
        #: site -> longest hold
        self._max_holds: Dict[str, HoldRecord] = {}
        self.locks_created = 0

    # -- bookkeeping called by _WatchedLock ------------------------------

    def _note_acquire(self, lock: "_WatchedLock") -> None:
        tid = threading.get_ident()
        key = (tid, id(lock))
        stack = _format_stack()
        with self._meta:
            depth = self._depths.get(key, 0) + 1
            self._depths[key] = depth
            if depth > 1:
                return
            held = self._held.setdefault(tid, [])
            thread_name = threading.current_thread().name
            for prior, _, prior_stack in held:
                if prior.site == lock.site:
                    continue
                targets = self._edges.setdefault(prior.site, {})
                if lock.site not in targets:
                    targets[lock.site] = EdgeWitness(
                        source=prior.site,
                        target=lock.site,
                        thread=thread_name,
                        holding_stack=list(prior_stack),
                        acquiring_stack=list(stack),
                    )
            held.append((lock, self.clock.monotonic(), stack))

    def _note_release(self, lock: "_WatchedLock") -> None:
        tid = threading.get_ident()
        key = (tid, id(lock))
        with self._meta:
            depth = self._depths.get(key, 0)
            if depth > 1:
                self._depths[key] = depth - 1
                return
            self._depths.pop(key, None)
            held = self._held.get(tid, [])
            for index in range(len(held) - 1, -1, -1):
                entry, acquired_at, stack = held[index]
                if entry is lock:
                    del held[index]
                    span = self.clock.monotonic() - acquired_at
                    best = self._max_holds.get(lock.site)
                    if best is None or span > best.span_s:
                        self._max_holds[lock.site] = HoldRecord(
                            site=lock.site,
                            span_s=span,
                            thread=threading.current_thread().name,
                            stack=stack,
                        )
                    break

    # -- inspection ------------------------------------------------------

    def find_cycle(self) -> Optional[List[EdgeWitness]]:
        """A list of edge witnesses forming a cycle, or None."""
        with self._meta:
            edges = {
                source: dict(targets) for source, targets in self._edges.items()
            }
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[str, int] = {}
        path: List[str] = []

        def dfs(site: str) -> Optional[List[str]]:
            color[site] = GRAY
            path.append(site)
            for target in sorted(edges.get(site, ())):
                state = color.get(target, WHITE)
                if state == GRAY:
                    return path[path.index(target) :] + [target]
                if state == WHITE:
                    cycle = dfs(target)
                    if cycle is not None:
                        return cycle
            path.pop()
            color[site] = BLACK
            return None

        for start in sorted(edges):
            if color.get(start, WHITE) == WHITE:
                cycle = dfs(start)
                if cycle is not None:
                    return [
                        edges[cycle[i]][cycle[i + 1]]
                        for i in range(len(cycle) - 1)
                    ]
        return None

    def hold_violations(self, budget_s: Optional[float] = None) -> List[HoldRecord]:
        budget = self.budget_s if budget_s is None else budget_s
        if budget is None:
            return []
        with self._meta:
            return sorted(
                (rec for rec in self._max_holds.values() if rec.span_s > budget),
                key=lambda rec: -rec.span_s,
            )

    def assert_clean(self, budget_s: Optional[float] = None) -> None:
        """Raise :class:`LockContractError` on a lock-order cycle or a
        hold-budget violation, with witness stacks."""
        cycle = self.find_cycle()
        if cycle is not None:
            rendered = "\n".join(witness.render() for witness in cycle)
            raise LockContractError(
                "lock-order cycle detected (potential deadlock):\n" + rendered
            )
        violations = self.hold_violations(budget_s)
        if violations:
            worst = violations[0]
            stack = "\n".join(f"      {line}" for line in worst.stack)
            raise LockContractError(
                f"lock hold budget exceeded: {worst.site} held for "
                f"{worst.span_s:.3f}s (budget "
                f"{self.budget_s if budget_s is None else budget_s}s) by thread "
                f"{worst.thread!r}\n    acquired at:\n{stack}"
            )


class _WatchedLock:
    """Instrumented stand-in for one ``Lock``/``RLock`` instance."""

    def __init__(self, watch: LockWatch, inner, site: str) -> None:
        self._watch = watch
        self._inner = inner
        self.site = site

    def acquire(self, blocking: bool = True, timeout: float = -1):
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._watch._note_acquire(self)
        return acquired

    def release(self) -> None:
        self._watch._note_release(self)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    # -- Condition integration ------------------------------------------
    # Condition.wait() fully releases via _release_save and reacquires
    # via _acquire_restore; routing both through the bookkeeping means
    # time parked in wait() does not count as holding the lock.

    def _is_owned(self) -> bool:
        if hasattr(self._inner, "_is_owned"):
            return self._inner._is_owned()
        if self._inner.acquire(False):
            self._inner.release()
            return False
        return True

    def _release_save(self):
        self._watch._note_release(self)
        if hasattr(self._inner, "_release_save"):
            return self._inner._release_save()
        self._inner.release()
        return None

    def _acquire_restore(self, state) -> None:
        if hasattr(self._inner, "_acquire_restore"):
            self._inner._acquire_restore(state)
        else:
            self._inner.acquire()
        self._watch._note_acquire(self)

    def __repr__(self) -> str:
        return f"<watched {self._inner!r} from {self.site}>"


def _make_factory(watch: LockWatch, real_factory):
    def factory():
        site = _allocation_site()
        if site is None:
            return real_factory()
        watch.locks_created += 1
        return _WatchedLock(watch, real_factory(), site)

    return factory


@contextlib.contextmanager
def watched(budget_s: Optional[float] = None, clock: Clock = SYSTEM_CLOCK):
    """Patch the ``threading`` lock factories for the duration of the
    block; yields the :class:`LockWatch` collecting the evidence, with
    hold spans timed on ``clock``."""
    watch = LockWatch(budget_s=budget_s, clock=clock)
    saved_lock, saved_rlock = threading.Lock, threading.RLock
    threading.Lock = _make_factory(watch, _REAL_LOCK)
    threading.RLock = _make_factory(watch, _REAL_RLOCK)
    try:
        yield watch
    finally:
        threading.Lock = saved_lock
        threading.RLock = saved_rlock
