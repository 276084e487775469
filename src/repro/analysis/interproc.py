"""Lock-contract rules over the call graph (pass 2).

Three rules run over the :class:`~repro.analysis.callgraph.ProjectIndex`
that pass 1 built.  Each is the only home of its defect class:

``blocking-under-lock``
    A call made while holding a lock blocks (``time.sleep``, ``urlopen``,
    a zero-arg ``.join()``, ...).  A call that blocks itself is depth 0;
    a call whose callee blocks is depth n when the terminal is n frames
    away, followed up to :data:`MAX_CHAIN_DEPTH` frames.  Depth 0 covers
    every held call in the module, including module-level ``with _LOCK:``
    blocks and nested ``def``s the call graph does not index.  The
    finding carries the call chain as a witness.

``requires-lock-not-held``
    A call site reaches a function whose ``# requires-lock:`` contract
    (declared, or inherited transitively from *its* callees) names a
    lock that is not statically held at the site and is not part of the
    calling function's own contract.

``mutable-return``
    A ``# guarded-by:`` container is returned by reference: literally
    (``return <any>.attr`` or ``return <any>.attr[key]`` for an attribute
    guarded in the module, or on a project base class of one of its
    classes), through a local alias (``entries = self._entries; return
    entries``), or through another method's return value
    (``return self._entries_ref()``).

Suppressions are honored at *any* frame: a ``# lint: ignore[...]``
naming the rule on an inner call/return line stops propagation through
that frame, exactly as if the edge did not exist.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.analysis.callgraph import FunctionInfo, ProjectIndex
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import terminal_name

#: Longest call chain followed (frames, including the blocking frame).
#: Deep enough for every real finding this repo has seen; bounded so a
#: recursive helper cannot make the witness — or the analysis — unbounded.
MAX_CHAIN_DEPTH = 8

RULE_BLOCKING = "blocking-under-lock"
RULE_REQUIRES_NOT_HELD = "requires-lock-not-held"
RULE_MUTABLE_RETURN = "mutable-return"

#: Calls that park the calling thread (so must never run under a lock).
#: ``Condition.wait`` is deliberately absent: it releases the lock while
#: blocked, which is the whole point of a condition variable.
BLOCKING_TERMINALS = frozenset(
    {"sleep", "urlopen", "serve_forever", "create_connection", "getresponse",
     "recv", "recv_into", "sendall"}
)
SUBPROCESS_CALLS = frozenset({"check_call", "check_output", "Popen"})

#: Constructors that copy their argument: assigning/returning through one
#: of these launders a guarded container into a caller-owned object.
COPYING_CALLS = frozenset(
    {"list", "dict", "set", "tuple", "frozenset", "sorted", "deepcopy", "copy", "replace"}
)


def _walk_own_body(func_node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested ``def``s —
    a nested function runs later, on whatever stack calls it, so its
    calls are not part of the enclosing function's execution."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func_node))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _frame(name: str, path: str, line: int) -> str:
    return f"{name} ({path}:{line})"


def _suppressed(index: ProjectIndex, module: str, line: int, rule: str) -> bool:
    """True when a suppression on ``line`` of ``module`` names ``rule``
    (with a reason — reason-less ones don't count)."""
    return any(
        sup.line == line and sup.reason and rule in sup.rules
        for sup in index.modules[module].comments.suppressions
    )


# --------------------------------------------------------------- blocking


def blocking_reason(node: ast.Call) -> Optional[str]:
    """Why ``node`` parks its thread (subprocess, sleep, network round
    trip, thread join, zero-arg ``Future.result``), or None."""
    func = node.func
    name = terminal_name(func)
    if name in BLOCKING_TERMINALS:
        return f"blocking call '{name}'"
    if name in SUBPROCESS_CALLS:
        return f"subprocess call '{name}'"
    if name in ("run", "call") and isinstance(func, ast.Attribute):
        if terminal_name(func.value) == "subprocess":
            return f"subprocess call '{name}'"
    if isinstance(func, ast.Attribute) and func.attr in ("join", "result") and not node.args:
        return f"blocking '.{func.attr}()'"
    return None


@dataclass
class _BlockingSummary:
    """Shortest witnessed path from a function to a blocking terminal."""

    depth: int
    reason: str
    #: frames from the function's own blocking/forwarding line inward
    chain: Tuple[str, ...]


def _blocking_summaries(index: ProjectIndex) -> Dict[str, _BlockingSummary]:
    """Fixpoint over the call graph: which functions (transitively) block.

    Depth 1 means the function itself contains a blocking call; depth n
    means the terminal is n-1 calls away.  Propagation stops at
    :data:`MAX_CHAIN_DEPTH` and at suppressed frames.
    """
    summaries: Dict[str, _BlockingSummary] = {}
    for qualname, info in index.functions.items():
        best: Optional[Tuple[str, int]] = None
        for node in _walk_own_body(info.node):
            if not isinstance(node, ast.Call):
                continue
            reason = blocking_reason(node)
            if reason is None or _suppressed(index, info.module, node.lineno, RULE_BLOCKING):
                continue
            if best is None or node.lineno < best[1]:
                best = (reason, node.lineno)
        if best is not None:
            summaries[qualname] = _BlockingSummary(
                depth=1, reason=best[0], chain=(_frame(qualname, info.path, best[1]),)
            )

    changed = True
    while changed:
        changed = False
        for qualname, info in index.functions.items():
            for site in info.calls:
                if site.callee is None or site.callee == qualname:
                    continue
                callee = summaries.get(site.callee)
                if callee is None or callee.depth >= MAX_CHAIN_DEPTH:
                    continue
                if _suppressed(index, info.module, site.line, RULE_BLOCKING):
                    continue
                candidate = _BlockingSummary(
                    depth=callee.depth + 1,
                    reason=callee.reason,
                    chain=(_frame(qualname, info.path, site.line),) + callee.chain,
                )
                current = summaries.get(qualname)
                if current is None or candidate.depth < current.depth:
                    summaries[qualname] = candidate
                    changed = True
    return summaries


def _check_blocking(index: ProjectIndex) -> Iterator[Finding]:
    summaries = _blocking_summaries(index)
    for name, path, site in index.call_sites():
        if not site.held:
            continue
        reason = blocking_reason(site.node)
        via, inner = "", ()
        if reason is None:  # depth >= 1: the callee blocks
            callee = summaries.get(site.callee)
            if callee is None:
                continue
            reason, inner = callee.reason, callee.chain
            via = f" via '{site.callee}' ({callee.depth} frame(s) deep)"
        yield Finding(
            path=path,
            line=site.line,
            col=site.node.col_offset + 1,
            rule=RULE_BLOCKING,
            severity=Severity.ERROR,
            message=f"{reason}{via} while holding {', '.join(sorted(site.held))}",
            hint="move the blocking work outside the lock; snapshot state "
            "under the lock, act on the snapshot after releasing it",
            chain=(_frame(name, path, site.line),) + inner,
        )


# ---------------------------------------------------------- requires-lock


def _needed_locks(index: ProjectIndex) -> Dict[str, Dict[str, Tuple[str, ...]]]:
    """Fixpoint: lock -> witness chain of locks each function needs held.

    A function needs a lock if its own ``# requires-lock:`` contract
    names it, or if it calls — without holding the lock — a function
    that needs it.  The witness chain runs from the function's own call
    line to the frame that declares the contract.
    """
    needs: Dict[str, Dict[str, Tuple[str, ...]]] = {}
    for qualname, info in index.functions.items():
        if info.requires:
            needs[qualname] = {
                lock: (_frame(qualname, info.path, info.node.lineno),)
                for lock in info.requires
            }

    changed = True
    while changed:
        changed = False
        for qualname, info in index.functions.items():
            mine = needs.setdefault(qualname, {})
            for site in info.calls:
                if site.callee is None or site.callee == qualname:
                    continue
                for lock, chain in needs.get(site.callee, {}).items():
                    if lock in site.held or lock in info.requires or lock in mine:
                        continue
                    if len(chain) >= MAX_CHAIN_DEPTH:
                        continue
                    if _suppressed(index, info.module, site.line, RULE_REQUIRES_NOT_HELD):
                        continue
                    mine[lock] = (_frame(qualname, info.path, site.line),) + chain
                    changed = True
    return needs


def _check_requires_lock(index: ProjectIndex) -> Iterator[Finding]:
    needs = _needed_locks(index)
    for info in index.functions.values():
        for site in info.calls:
            if site.callee is None or site.callee == info.qualname:
                continue
            callee_info = index.functions[site.callee]
            for lock, chain in needs.get(site.callee, {}).items():
                if lock in site.held or lock in info.requires:
                    continue
                declared = lock in callee_info.requires
                origin = "declares" if declared else "transitively needs"
                yield Finding(
                    path=info.path,
                    line=site.line,
                    col=site.node.col_offset + 1,
                    rule=RULE_REQUIRES_NOT_HELD,
                    severity=Severity.ERROR,
                    message=(
                        f"call to '{callee_info.qualname}', which {origin} "
                        f"'# requires-lock: {lock}', without holding '{lock}'"
                    ),
                    hint=f"acquire 'with ...{lock}:' around the call, or mark "
                    f"the calling function '# requires-lock: {lock}'",
                    chain=(_frame(info.qualname, info.path, site.line),) + chain,
                )


# --------------------------------------------------------- mutable-return


def _is_copying(node: ast.AST) -> bool:
    """``list(x)``, ``dict(x)``, ``x.copy()``, ``deepcopy(x)`` — the
    result is caller-owned, not the guarded container itself."""
    return isinstance(node, ast.Call) and terminal_name(node.func) in COPYING_CALLS


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


@dataclass
class _Escape:
    """One guarded attribute escaping from a function's return value."""

    attr: str
    path: str
    line: int
    col: int
    via: str  # "literal" | "alias" | "call"
    chain: Tuple[str, ...]


def _own_escapes(
    func_node: ast.AST, guarded: FrozenSet[str], name: str, path: str
) -> List[_Escape]:
    """Literal and aliased returns of guarded containers in one
    function's own body."""

    def in_line_order(kind):
        nodes = (node for node in _walk_own_body(func_node) if isinstance(node, kind))
        return sorted(nodes, key=lambda node: (node.lineno, node.col_offset))

    # the alias map is flow-sensitive in line order (a rebind kills the
    # alias); _walk_own_body is a stack walk, not source order
    assigns = [
        node
        for node in in_line_order(ast.Assign)
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
    ]
    escapes: List[_Escape] = []
    for ret in in_line_order(ast.Return):
        if ret.value is None:
            continue
        aliases: Dict[str, str] = {}
        for node in assigns:
            if node.lineno >= ret.lineno:
                break
            target = node.targets[0].id
            if _is_self_attr(node.value) and node.value.attr in guarded:
                aliases[target] = node.value.attr
            else:
                aliases.pop(target, None)  # rebound to something else
        # only the *terminal* name matters: ``return self.stats`` and
        # ``return self._entries[key]`` leak the guarded object, but
        # ``return self.stats.hit_rate`` returns a plain value
        subscripted = isinstance(ret.value, ast.Subscript)
        value = ret.value.value if subscripted else ret.value
        literal = terminal_name(value) if subscripted or isinstance(value, ast.Attribute) else None
        if literal in guarded:
            attr, via = literal, "literal"
        elif isinstance(value, ast.Name) and value.id in aliases:
            attr, via = aliases[value.id], "alias"
        else:
            continue
        escapes.append(
            _Escape(
                attr, path, ret.lineno, ret.col_offset + 1, via,
                (_frame(name, path, ret.lineno),),
            )
        )
    return escapes


def _module_guarded(index: ProjectIndex, module: str) -> FrozenSet[str]:
    """Attributes guarded anywhere in ``module``, plus those its classes
    inherit from project bases declared in other modules."""
    names = set(index.modules[module].guarded)
    for cls in index.classes.values():
        if cls.module == module:
            names.update(index.guarded_for_class(cls.qualname))
    return frozenset(names)


def _getter_returns(index: ProjectIndex, info: FunctionInfo) -> List[Tuple[ast.Return, str]]:
    """``return self.getter()`` lines of one method with the method each
    calls; a suppressed line is no edge at all."""
    edges = []
    for node in _walk_own_body(info.node):
        if not isinstance(node, ast.Return) or not isinstance(node.value, ast.Call):
            continue
        if _is_copying(node.value) or not _is_self_attr(node.value.func):
            continue
        callee = index.resolve_method(f"{info.module}.{info.class_name}", node.value.func.attr)
        if callee is None or callee == info.qualname:
            continue
        if not _suppressed(index, info.module, node.lineno, RULE_MUTABLE_RETURN):
            edges.append((node, callee))
    return edges


def _escapes(index: ProjectIndex) -> List[_Escape]:
    """Every function's own escapes, then the ones methods inherit
    through ``return self.getter()``, to a fixpoint."""
    methods = {
        id(info.node): info for info in index.functions.values() if info.class_name is not None
    }
    found: List[_Escape] = []
    summaries: Dict[str, List[_Escape]] = {}
    for mod in index.modules.values():
        guarded = _module_guarded(index, mod.name)
        if not guarded:
            continue
        for node in mod.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            info = methods.get(id(node))
            name = info.qualname if info is not None else f"{mod.name}.{node.name}"
            own = _own_escapes(node, guarded, name, mod.path)
            found.extend(own)
            if info is not None:
                summaries[info.qualname] = [
                    esc for esc in own
                    if not _suppressed(index, mod.name, esc.line, RULE_MUTABLE_RETURN)
                ]

    edges = {info.qualname: _getter_returns(index, info) for info in methods.values()}
    changed = True
    while changed:
        changed = False
        for qualname, getters in edges.items():
            info = index.functions[qualname]
            mine = summaries.setdefault(qualname, [])
            known = {(esc.attr, esc.line) for esc in mine}
            for ret, callee in getters:
                for esc in summaries.get(callee, []):
                    key = (esc.attr, ret.lineno)
                    if key in known or len(esc.chain) >= MAX_CHAIN_DEPTH:
                        continue
                    inherited = _Escape(
                        esc.attr, info.path, ret.lineno, ret.col_offset + 1, "call",
                        (_frame(qualname, info.path, ret.lineno),) + esc.chain,
                    )
                    mine.append(inherited)
                    found.append(inherited)
                    known.add(key)
                    changed = True
    return found


def _check_mutable_return(index: ProjectIndex) -> Iterator[Finding]:
    how = {
        "literal": "",
        "alias": " through a local alias",
        "call": " through another method's return",
    }
    for esc in _escapes(index):
        yield Finding(
            path=esc.path,
            line=esc.line,
            col=esc.col,
            rule=RULE_MUTABLE_RETURN,
            severity=Severity.ERROR,
            message=f"returns guarded container '{esc.attr}' by reference{how[esc.via]}",
            hint="return a copy (dict(...), list(...), dataclasses.replace(...)) "
            "so callers cannot mutate shared state",
            chain=esc.chain,
        )


# ------------------------------------------------------------------ entry


def run_interproc(index: ProjectIndex) -> List[Finding]:
    """Every call-graph finding over an indexed project, sorted the same
    way the engine sorts file-rule findings."""
    findings: List[Finding] = []
    findings.extend(_check_blocking(index))
    findings.extend(_check_requires_lock(index))
    findings.extend(_check_mutable_return(index))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
