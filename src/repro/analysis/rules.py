"""Lint rules grounded in this repository's own bug history.

Every rule here guards against a defect class that a past PR fixed by
hand (the rule docstrings say which); docs/STATIC_ANALYSIS.md carries
the full catalog with the war stories.  Rules receive a
:class:`LintContext` (one parsed file, its guarded-attribute and
held-lock maps, and the repo-wide ``__len__`` class index) and yield
:class:`Finding`s.
The lock-contract rules that follow calls and returns across functions
(``blocking-under-lock``, ``requires-lock-not-held``, ``mutable-return``)
run over the call graph in :mod:`repro.analysis.interproc`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import PurePath
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.annotations import CommentMap
from repro.analysis.findings import Finding, Severity, make_finding

#: Method names that mutate their receiver in place.  Used by the
#: guarded-by rule to treat ``self.entries.append(x)`` as a mutation of
#: ``entries`` even though no assignment statement is involved.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "appendleft",
        "popleft",
        "move_to_end",
        "sort",
        "reverse",
    }
)

#: ``heapq`` functions whose *first argument* is mutated in place.
HEAPQ_MUTATORS = frozenset({"heappush", "heappop", "heapreplace", "heappushpop"})

#: Calls in an ``except`` body that count as *handling* the exception.
LOGGING_NAMES = frozenset(
    {"debug", "info", "warning", "warn", "error", "exception", "critical", "log", "print"}
)
RECORDING_NAMES = frozenset(
    {"append", "add", "update", "put", "record", "extend", "failure", "set"}
)

#: Constructors whose results are mutable (flagged as default arguments).
MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "defaultdict", "deque", "bytearray", "OrderedDict", "Counter"}
)

#: Classes in this repo that define ``__len__``, so their instances can
#: be falsy while present — ``x or Cls()`` silently *unshares* them (the
#: ``zoo or ModelZoo()`` bug fixed twice before this rule existed).
#: Kept as a baked-in floor so linting tests/ still knows about classes
#: defined under src/; the engine unions in every ``__len__`` class it
#: sees in the scanned files.
DEFAULT_LEN_CLASSES = frozenset(
    {
        "Trace",
        "Sequential",
        "GatewaySupervisor",
        "TTLLRUCache",
        "SelectionCache",
        "EdgeFleet",
        "ModelZoo",
        "ModelRegistry",
    }
)


@dataclass
class LintContext:
    """Everything a rule may consult about one file (the maps are the
    ones the call-graph index computed for the file's module)."""

    path: str
    tree: ast.Module
    #: every node of ``tree``, walked once per module (see ModuleInfo.nodes)
    nodes: List[ast.AST]
    #: attribute name -> lock attribute names (holding any one suffices),
    #: from ``# guarded-by:`` comments
    guarded: Dict[str, Tuple[str, ...]]
    #: id(node) -> frozenset of lock names held at that node
    held_at: Dict[int, FrozenSet[str]]
    #: id(node) -> innermost enclosing function
    func_of: Dict[int, ast.AST]
    #: repo-wide set of class names defining ``__len__``
    len_classes: FrozenSet[str]

    def held(self, node: ast.AST) -> FrozenSet[str]:
        return self.held_at.get(id(node), frozenset())

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        return self.func_of.get(id(node))


def terminal_name(node: ast.AST) -> Optional[str]:
    """The final attribute/name of a dotted expression (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def attr_chain(node: ast.AST) -> List[str]:
    """Attribute names along a target chain, innermost first.

    ``self.stats.hits`` -> ``["hits", "stats"]``; subscripts are walked
    through (``self._entries[key]`` -> ``["_entries"]``) but call results
    are not — mutating what a call returned is not mutating the attribute.
    """
    names: List[str] = []
    current = node
    while True:
        if isinstance(current, ast.Attribute):
            names.append(current.attr)
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        else:
            break
    return names


def collect_guarded_attrs(
    nodes: Iterable[ast.AST], comments: CommentMap
) -> Dict[str, Tuple[str, ...]]:
    """Map attribute name -> lock names from ``# guarded-by:`` comments.

    The comment sits on the attribute's declaration: a ``self.x = ...``
    line in ``__init__`` or a dataclass field line in a class body.  The
    map is module-scoped — attribute names are assumed unique enough
    within one module, which holds for this repo and keeps the rule
    simple and predictable.  Several comma-separated locks may be named;
    holding any one of them legalizes a mutation.
    """
    guarded: Dict[str, Tuple[str, ...]] = {}
    for node in nodes:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        first = getattr(node, "lineno", 0)
        last = getattr(node, "end_lineno", first) or first
        locks = next(
            (
                comments.guarded_by[line]
                for line in range(first, last + 1)
                if line in comments.guarded_by
            ),
            None,
        )
        if locks is None:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute):
                guarded[target.attr] = locks
            elif isinstance(target, ast.Name):
                guarded[target.id] = locks
    return guarded


def collect_required_locks(
    nodes: Iterable[ast.AST], comments: CommentMap
) -> Dict[int, FrozenSet[str]]:
    """Map id(function node) -> locks asserted held by ``# requires-lock:``.

    The comment may trail the ``def`` line (or any line of a multi-line
    signature) or stand alone immediately above the first body statement.
    """
    required: Dict[int, FrozenSet[str]] = {}
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body_start = node.body[0].lineno if node.body else node.lineno
        locks = frozenset(
            lock
            for line in range(node.lineno, body_start + 1)
            for lock in comments.requires_lock.get(line, ())
        )
        if locks:
            required[id(node)] = locks
    return required


def map_held_locks(
    tree: ast.Module, required: Dict[int, FrozenSet[str]]
) -> Tuple[Dict[int, FrozenSet[str]], Dict[int, ast.AST]]:
    """For every node, which locks are statically held at that point.

    A lock is "held" inside the body of ``with <expr>.<name>:`` for any
    base expression — matching on the terminal attribute name lets ``with
    self._stats_lock:`` guard ``instance.requests_served``.  Nested
    function bodies reset the held set (they run later, on some other
    stack) except for locks their ``# requires-lock:`` contract asserts.
    """
    held_at: Dict[int, FrozenSet[str]] = {}
    func_of: Dict[int, ast.AST] = {}
    func_stack: List[ast.AST] = []

    def visit(node: ast.AST, held: FrozenSet[str]) -> None:
        held_at[id(node)] = held
        if func_stack:
            func_of[id(node)] = func_stack[-1]
        if isinstance(node, ast.With):
            names = set()
            for item in node.items:
                for child in ast.walk(item.context_expr):
                    held_at.setdefault(id(child), held)
                    if func_stack:
                        func_of.setdefault(id(child), func_stack[-1])
                name = terminal_name(item.context_expr)
                if name is not None and ("lock" in name.lower() or "cond" in name.lower()):
                    names.add(name)
            body_held = held | frozenset(names)
            for stmt in node.body:
                visit(stmt, body_held)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func_stack.append(node)
            inner = required.get(id(node), frozenset())
            for child in ast.iter_child_nodes(node):
                visit(child, inner)
            func_stack.pop()
            return
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    visit(tree, frozenset())
    return held_at, func_of


def _function_is_exempt(func: Optional[ast.AST]) -> bool:
    """Constructors mutate their own fresh instance before any thread
    can see it, so guarded-by does not apply there."""
    return func is not None and getattr(func, "name", "") in ("__init__", "__post_init__")


class Rule:
    """One lint rule: an id, a severity, and a check over a file."""

    rule_id = ""
    severity = Severity.ERROR
    description = ""

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: LintContext, node: ast.AST, message: str, hint: str = ""
    ) -> Finding:
        return make_finding(ctx.path, node, self.rule_id, self.severity, message, hint)


class GuardedByRule(Rule):
    """Attributes annotated ``# guarded-by: <lock>`` may only be mutated
    while that lock is held.

    History: the serving fleet has 17 locks across 13 modules, and the
    judging flag in rollout.py and the failed-task list in the since
    deleted runtime/executor.py were both mutated outside their locks
    before this rule existed.
    """

    rule_id = "guarded-by"
    severity = Severity.ERROR
    description = "guarded attribute mutated without holding its lock"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not ctx.guarded:
            return
        for node in ctx.nodes:
            for attr, target in self._mutations(node):
                locks = ctx.guarded.get(attr)
                if locks is None or any(lock in ctx.held(node) for lock in locks):
                    continue
                if _function_is_exempt(ctx.enclosing_function(node)):
                    continue
                shown = "' or '".join(locks)
                yield self.finding(
                    ctx,
                    node,
                    f"'{attr}' is guarded by '{shown}' but is mutated without it",
                    hint=f"wrap the mutation in 'with ...{locks[0]}:' or mark the "
                    f"enclosing function '# requires-lock: {locks[0]}'",
                )

    def _mutations(self, node: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
        """Yield (guardable attribute name, node) for each mutation."""
        seen: Set[str] = set()
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in attr_chain(target):
                    seen.add(name)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                for name in attr_chain(target):
                    seen.add(name)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
                for name in attr_chain(func.value):
                    seen.add(name)
            elif (
                terminal_name(func) in HEAPQ_MUTATORS
                and node.args
            ):
                for name in attr_chain(node.args[0]):
                    seen.add(name)
        for name in seen:
            yield name, node


class SwallowedExceptionRule(Rule):
    """A bare/broad ``except`` must re-raise, log, record, or return —
    not silently drop the exception.

    History: rollout.py's canary and promote paths caught ``Exception``
    and re-raised without recording anything, so a failed rollout left
    no trace in the event log operators page on.
    """

    rule_id = "swallowed-exception"
    severity = Severity.ERROR
    description = "broad except swallows the exception without a trace"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._handles(node.body):
                continue
            yield self.finding(
                ctx,
                node,
                "broad 'except' swallows the exception without logging, "
                "recording, re-raising, or returning",
                hint="narrow the exception type, or log/record the failure "
                "before continuing",
            )

    def _is_broad(self, type_node: Optional[ast.AST]) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(elt) for elt in type_node.elts)
        return terminal_name(type_node) in ("Exception", "BaseException")

    def _handles(self, body: List[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Raise, ast.Return, ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    return True
                if isinstance(node, ast.Call):
                    name = terminal_name(node.func)
                    if name in LOGGING_NAMES or name in RECORDING_NAMES:
                        return True
        return False


class MutableDefaultRule(Rule):
    """No mutable default arguments — the default is created once and
    shared by every call."""

    rule_id = "mutable-default-arg"
    severity = Severity.WARNING
    description = "mutable default argument shared across calls"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx,
                        default,
                        "mutable default argument is shared across every call",
                        hint="default to None and create the container in the body",
                    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            return terminal_name(node.func) in MUTABLE_CONSTRUCTORS
        return False


class MissingTimeoutRule(Rule):
    """Network calls must carry an explicit timeout.

    History: the libei client's first version blocked forever on a hung
    gateway; every ``urlopen``/``create_connection``/``HTTPConnection``
    now names a timeout.
    """

    rule_id = "missing-timeout"
    severity = Severity.WARNING
    description = "network call without an explicit timeout"

    #: terminal name -> number of positional args that includes a timeout
    NETWORK_CALLS = {"urlopen": 3, "create_connection": 2, "HTTPConnection": 3}

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = terminal_name(node.func)
            positional_floor = self.NETWORK_CALLS.get(name or "")
            if positional_floor is None:
                continue
            if any(kw.arg == "timeout" for kw in node.keywords):
                continue
            if len(node.args) >= positional_floor:
                continue
            yield self.finding(
                ctx,
                node,
                f"'{name}' without an explicit timeout can block forever",
                hint="pass timeout=<seconds>",
            )


class OrFalsyDefaultRule(Rule):
    """``x or Cls()`` is wrong when ``Cls`` defines ``__len__``: an
    *empty* instance is falsy, so the caller's object is silently
    replaced with a private one.

    History: the ``zoo or ModelZoo()`` unsharing bug was fixed twice in
    this repo before the rule existed; ``is None`` checks are immune.
    """

    rule_id = "or-falsy-default"
    severity = Severity.ERROR
    description = "'or' default on a __len__-defining class unshares empty instances"

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.BoolOp) or not isinstance(node.op, ast.Or):
                continue
            for value in node.values[1:]:
                if not isinstance(value, ast.Call):
                    continue
                name = terminal_name(value.func)
                if name in ctx.len_classes:
                    yield self.finding(
                        ctx,
                        value,
                        f"'or {name}(...)' replaces an *empty* (falsy) {name} "
                        "with a new private instance",
                        hint="use 'x if x is not None else ...' instead of 'or'",
                    )


class BareClockRule(Rule):
    """Serving and the control plane read time only through :mod:`repro.clock`.

    History: four holders took four differently spelled ``clock=``
    callables while other deadlines read the host clock directly, so
    every test of a deadline had to sleep through it.  A bare
    ``time.monotonic`` / ``time.time`` / ``time.sleep`` in
    ``repro/serving`` or ``repro/core`` is time a
    :class:`~repro.clock.ManualClock` cannot move.  Durations of work
    (``time.perf_counter``) are observations and stay.
    """

    rule_id = "bare-clock"
    severity = Severity.ERROR
    description = "host clock read in serving/core instead of through repro.clock"

    PACKAGES = frozenset({"serving", "core"})
    CLOCK_FUNCTIONS = frozenset({"monotonic", "monotonic_ns", "time", "time_ns", "sleep"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        parts = PurePath(ctx.path).parts
        if not any(
            outer == "repro" and inner in self.PACKAGES
            for outer, inner in zip(parts, parts[1:-1])
        ):
            return
        for node in ctx.nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                names = sorted(a.name for a in node.names if a.name in self.CLOCK_FUNCTIONS)
                if names:
                    yield self._bare(ctx, node, ", ".join(f"time.{n}" for n in names))
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in self.CLOCK_FUNCTIONS
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"
            ):
                yield self._bare(ctx, node, f"time.{node.attr}")

    def _bare(self, ctx: LintContext, node: ast.AST, what: str) -> Finding:
        return self.finding(
            ctx,
            node,
            f"'{what}' reads the host clock directly; a ManualClock cannot move it",
            hint="take a repro.clock.Clock (clock=SYSTEM_CLOCK) and call its "
            "monotonic() / wall() / wait() / sleep()",
        )


ALL_RULES: List[Rule] = [
    GuardedByRule(),
    SwallowedExceptionRule(),
    MutableDefaultRule(),
    MissingTimeoutRule(),
    OrFalsyDefaultRule(),
    BareClockRule(),
]


def collect_len_classes(modules: Iterable[Iterable[ast.AST]]) -> FrozenSet[str]:
    """Names of scanned classes defining ``__len__`` (unioned with the
    baked-in repo defaults by the engine); one node list per module."""
    names: Set[str] = set()
    for nodes in modules:
        for node in nodes:
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "__len__"
                for item in node.body
            ):
                names.add(node.name)
    return frozenset(names)
