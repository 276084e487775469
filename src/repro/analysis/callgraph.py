"""Project-wide symbol table and call graph (interprocedural pass 1).

The intraprocedural rules in :mod:`repro.analysis.rules` see one file at
a time; the interprocedural rules in :mod:`repro.analysis.interproc`
need to follow a call from ``RolloutController.check`` into a helper two
modules away.  This module builds the shared substrate for that:

* a **symbol table**: every module, module-level function, class and
  method in the linted tree, keyed by dotted qualname
  (``repro.serving.rollout.RolloutController.check``);
* a **call graph**: for every indexed function, the calls its body makes
  and — where statically resolvable — which project function each call
  lands on, together with the set of locks held at the call site.

Resolution is deliberately conservative: a call is only given an edge
when the target is unambiguous from the file's own bindings —

* direct calls to module-level functions (``helper()``) and to names
  imported from project modules (``from repro.x import helper``);
* ``self.method()`` resolved through the class's MRO (project bases
  only), ``super().method()`` starting the lookup past the own class;
* ``module.func()`` / ``alias.func()`` through ``import`` bindings, and
  ``Cls()`` to ``Cls.__init__``.

Names rebound inside the calling function (parameters, local
assignments) shadow module bindings and resolve to nothing, as do calls
through arbitrary objects (``obj.run()``) — a missing edge can hide a
transitive finding, but never fabricates one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.annotations import CommentMap
from repro.analysis.rules import (
    collect_guarded_attrs,
    collect_required_locks,
    map_held_locks,
    terminal_name,
)


@dataclass
class CallSite:
    """One call expression inside an indexed function."""

    #: resolved project-function qualname, or None when unresolvable
    callee: Optional[str]
    node: ast.Call
    line: int
    #: locks statically held at the call site
    held: FrozenSet[str]


@dataclass
class FunctionInfo:
    """One module-level function or method in the symbol table."""

    qualname: str
    module: str
    name: str
    path: str
    node: ast.AST
    class_name: Optional[str] = None
    decorators: Tuple[str, ...] = ()
    #: locks the ``# requires-lock:`` contract asserts held on entry
    requires: FrozenSet[str] = frozenset()
    calls: List[CallSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class: its methods, bases, and guarded attributes."""

    qualname: str
    module: str
    name: str
    #: base-class qualnames resolved against the module's bindings (only
    #: project classes appear; ``object`` and external bases are dropped)
    bases: Tuple[str, ...] = ()
    #: method name -> function qualname (own methods only, no MRO)
    methods: Dict[str, str] = field(default_factory=dict)
    #: attr name -> lock names, from ``# guarded-by:`` comments in this
    #: class's own body/``__init__`` (inherited attrs live on the base)
    guarded: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed file and its top-level name bindings."""

    name: str
    path: str
    tree: ast.Module
    comments: CommentMap
    #: every node of ``tree`` in ``ast.walk`` order, walked once and shared
    #: by the index and every rule
    nodes: List[ast.AST] = field(default_factory=list)
    #: local name -> dotted target: ``module.func`` / ``module.Class``
    #: for defs, the imported qualname for imports.  Later bindings win,
    #: so a ``def helper`` below ``from x import helper`` shadows it.
    bindings: Dict[str, str] = field(default_factory=dict)
    #: attr name -> lock names from every ``# guarded-by:`` in the module
    guarded: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: id(node) -> locks statically held there, and -> innermost ``def``
    held_at: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    func_of: Dict[int, ast.AST] = field(default_factory=dict)
    #: calls no indexed function owns (module-level code, nested ``def``
    #: bodies); never resolved, so only depth-0 blocking applies to them
    loose_calls: List[CallSite] = field(default_factory=list)


def module_name_for(path: Path) -> str:
    """Dotted module name: walk up while the parent is a package.

    ``src/repro/serving/rollout.py`` -> ``repro.serving.rollout``; a file
    outside any package is named by its stem.
    """
    resolved = path.resolve()
    parts = [resolved.stem] if resolved.stem != "__init__" else []
    current = resolved.parent
    while (current / "__init__.py").exists():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    return ".".join(parts) if parts else resolved.stem


def _decorator_names(node: ast.AST) -> Tuple[str, ...]:
    names = []
    for dec in getattr(node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = terminal_name(target)
        if name:
            names.append(name)
    return tuple(names)


def _dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name chains."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    parts.reverse()
    return parts


def _local_bindings(func_node: ast.AST) -> FrozenSet[str]:
    """Names bound inside a function (params, assignments, loop targets,
    inner defs): these shadow module-level bindings at call sites."""
    names = set()
    args = getattr(func_node, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            names.add(arg.arg)
    for node in ast.walk(func_node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not func_node:
                names.add(node.name)
    return frozenset(names)


class ProjectIndex:
    """The symbol table + call graph over one lint run's files."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: path (as given to the linter) -> module name
        self.path_to_module: Dict[str, str] = {}

    # ------------------------------------------------------------- build

    @classmethod
    def build(
        cls, parsed: Iterable[Tuple[str, ast.Module, CommentMap]]
    ) -> "ProjectIndex":
        """Index ``(path, tree, comments)`` triples into a project graph."""
        index = cls()
        entries = list(parsed)
        for path, tree, comments in entries:
            index._index_module(path, tree, comments)
        for path, tree, comments in entries:
            index._index_calls(index.path_to_module[path])
        return index

    def _index_module(self, path: str, tree: ast.Module, comments: CommentMap) -> None:
        name = module_name_for(Path(path))
        if name in self.modules:
            # two unpackaged files with the same stem: key the later one by
            # path so neither is silently dropped (imports cannot reach it,
            # which is the honest answer for an ambiguous name)
            name = f"{name}@{path}"
        nodes = list(ast.walk(tree))
        mod = ModuleInfo(
            name=name,
            path=path,
            tree=tree,
            comments=comments,
            nodes=nodes,
            guarded=collect_guarded_attrs(nodes, comments),
        )
        self.modules[name] = mod
        self.path_to_module[path] = name

        for stmt in tree.body:
            self._bind_toplevel(mod, stmt)

    def _bind_toplevel(self, mod: ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    mod.bindings[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    mod.bindings[root] = root
        elif isinstance(stmt, ast.ImportFrom):
            base = self._resolve_relative(mod.name, stmt.module, stmt.level)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mod.bindings[local] = f"{base}.{alias.name}" if base else alias.name
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{mod.name}.{stmt.name}"
            mod.bindings[stmt.name] = qualname
            self.functions[qualname] = self._function_info(mod, stmt, qualname, None)
        elif isinstance(stmt, ast.ClassDef):
            self._bind_class(mod, stmt)
        elif isinstance(stmt, (ast.If, ast.Try)):
            # typing/compat guards: ``if TYPE_CHECKING:`` / try-import
            for inner in ast.iter_child_nodes(stmt):
                if isinstance(inner, ast.stmt):
                    self._bind_toplevel(mod, inner)

    def _bind_class(self, mod: ModuleInfo, stmt: ast.ClassDef) -> None:
        qualname = f"{mod.name}.{stmt.name}"
        mod.bindings[stmt.name] = qualname
        cls_info = ClassInfo(qualname=qualname, module=mod.name, name=stmt.name)
        raw_bases = []
        for base in stmt.bases:
            parts = _dotted_parts(base)
            if parts:
                raw_bases.append(".".join(parts))
        cls_info.bases = tuple(raw_bases)  # resolved lazily in mro()
        for item in stmt.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_qualname = f"{qualname}.{item.name}"
                cls_info.methods[item.name] = method_qualname
                self.functions[method_qualname] = self._function_info(
                    mod, item, method_qualname, stmt.name
                )
        cls_info.guarded = self._class_guarded(mod, stmt)
        self.classes[qualname] = cls_info

    def _function_info(
        self,
        mod: ModuleInfo,
        node: ast.AST,
        qualname: str,
        class_name: Optional[str],
    ) -> FunctionInfo:
        return FunctionInfo(
            qualname=qualname,
            module=mod.name,
            name=getattr(node, "name", "<lambda>"),
            path=mod.path,
            node=node,
            class_name=class_name,
            decorators=_decorator_names(node),
        )

    def _class_guarded(
        self, mod: ModuleInfo, stmt: ast.ClassDef
    ) -> Dict[str, Tuple[str, ...]]:
        """``# guarded-by:`` declarations scoped to one class: dataclass
        field lines in the class body plus ``self.x = ...`` lines in its
        own methods."""
        guarded: Dict[str, Tuple[str, ...]] = {}
        for node in ast.walk(stmt):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            first = getattr(node, "lineno", 0)
            last = getattr(node, "end_lineno", first) or first
            locks = next(
                (
                    mod.comments.guarded_by[line]
                    for line in range(first, last + 1)
                    if line in mod.comments.guarded_by
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

    def _resolve_relative(
        self, module: str, target: Optional[str], level: int
    ) -> Optional[str]:
        if level == 0:
            return target
        parts = module.split(".")
        # level 1 = current package; the module's own name is the last part
        base_parts = parts[: len(parts) - level]
        if target:
            base_parts.append(target)
        return ".".join(base_parts) if base_parts else target

    # ------------------------------------------------------ call indexing

    def _index_calls(self, module_name: str) -> None:
        mod = self.modules[module_name]
        required_by_id = collect_required_locks(mod.nodes, mod.comments)
        mod.held_at, mod.func_of = map_held_locks(mod.tree, required_by_id)

        by_node_id = {
            id(info.node): info
            for info in self.functions.values()
            if info.module == module_name
        }
        for info in by_node_id.values():
            info.requires = required_by_id.get(id(info.node), frozenset())

        local_names = {
            qualname: _local_bindings(info.node) for qualname, info in (
                (i.qualname, i) for i in by_node_id.values()
            )
        }

        for node in mod.nodes:
            if not isinstance(node, ast.Call):
                continue
            owner_node = mod.func_of.get(id(node))
            owner = by_node_id.get(id(owner_node)) if owner_node is not None else None
            held = mod.held_at.get(id(node), frozenset())
            if owner is None:
                mod.loose_calls.append(CallSite(None, node, node.lineno, held))
                continue
            callee = self._resolve_call(mod, owner, node, local_names[owner.qualname])
            owner.calls.append(CallSite(callee, node, node.lineno, held))

    def _resolve_call(
        self,
        mod: ModuleInfo,
        owner: FunctionInfo,
        call: ast.Call,
        local_names: FrozenSet[str],
    ) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in local_names and func.id != owner.name:
                return None  # shadowed by a parameter or local assignment
            return self._resolve_binding(mod.bindings.get(func.id))
        if not isinstance(func, ast.Attribute):
            return None
        # self.method() / super().method()
        base = func.value
        if owner.class_name is not None:
            cls_qualname = f"{mod.name}.{owner.class_name}"
            if isinstance(base, ast.Name) and base.id == "self":
                return self.resolve_method(cls_qualname, func.attr)
            if (
                isinstance(base, ast.Call)
                and isinstance(base.func, ast.Name)
                and base.func.id == "super"
            ):
                return self.resolve_method(cls_qualname, func.attr, skip_own=True)
        # module.func() / alias.Class.method() / pkg.mod.func()
        parts = _dotted_parts(func)
        if parts is None or parts[0] in local_names:
            return None
        expanded = mod.bindings.get(parts[0])
        if expanded is None:
            return None
        dotted = ".".join([expanded] + parts[1:])
        return self._resolve_binding(dotted)

    def _resolve_binding(self, dotted: Optional[str]) -> Optional[str]:
        """A dotted target -> function qualname, following one level of
        re-export and routing class constructors to ``__init__``."""
        if dotted is None:
            return None
        if dotted in self.functions:
            return dotted
        if dotted in self.classes:
            return self.resolve_method(dotted, "__init__")
        # ``repro.serving.rollout.RolloutController.check`` style chains:
        # split on the last dot and retry the prefix as a class or module
        if "." in dotted:
            prefix, leaf = dotted.rsplit(".", 1)
            if prefix in self.classes:
                return self.resolve_method(prefix, leaf)
            target_mod = self.modules.get(prefix)
            if target_mod is not None:
                bound = target_mod.bindings.get(leaf)
                if bound is not None and bound != dotted:
                    return self._resolve_binding(bound)
        return None

    # --------------------------------------------------------- hierarchy

    def mro(self, cls_qualname: str) -> List[str]:
        """Depth-first linearization over project classes (duplicates
        dropped); good enough for single-inheritance plus mixins."""
        order: List[str] = []

        def visit(qualname: str) -> None:
            info = self.classes.get(qualname)
            if info is None or qualname in order:
                return
            order.append(qualname)
            mod = self.modules.get(info.module)
            for raw_base in info.bases:
                resolved = None
                if mod is not None:
                    head = raw_base.split(".")[0]
                    bound = mod.bindings.get(head)
                    if bound is not None:
                        resolved = ".".join([bound] + raw_base.split(".")[1:])
                visit(resolved if resolved in self.classes else raw_base)

        visit(cls_qualname)
        return order

    def resolve_method(
        self, cls_qualname: str, method: str, skip_own: bool = False
    ) -> Optional[str]:
        order = self.mro(cls_qualname)
        if skip_own and order:
            order = order[1:]
        for qualname in order:
            info = self.classes.get(qualname)
            if info is not None and method in info.methods:
                return info.methods[method]
        return None

    def call_sites(self) -> Iterator[Tuple[str, str, CallSite]]:
        """Every call in the project as ``(owner name, path, site)``: the
        indexed functions' own calls, then each module's loose calls."""
        for info in self.functions.values():
            for site in info.calls:
                yield info.qualname, info.path, site
        for mod in self.modules.values():
            for site in mod.loose_calls:
                yield mod.name, mod.path, site

    def guarded_for_class(self, cls_qualname: str) -> Dict[str, Tuple[str, ...]]:
        """Guarded attributes visible to a class: its own plus every
        project base's (subclass declarations win on conflict)."""
        merged: Dict[str, Tuple[str, ...]] = {}
        for qualname in reversed(self.mro(cls_qualname)):
            info = self.classes.get(qualname)
            if info is not None:
                merged.update(info.guarded)
        return merged

