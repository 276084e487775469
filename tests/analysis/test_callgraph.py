"""Unit tests for the project-wide symbol table and call graph.

Each test materializes a tiny package under ``tmp_path`` and asserts
which edges the resolver does — and deliberately does not — produce.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analysis.annotations import scan_comments
from repro.analysis.callgraph import ProjectIndex, module_name_for


def _index(tmp_path, files):
    parsed = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        source = textwrap.dedent(source)
        path.write_text(source)
        parsed.append((str(path), ast.parse(source), scan_comments(source)))
    return ProjectIndex.build(parsed)


def _callees(index, qualname):
    return [site.callee for site in index.functions[qualname].calls]


def test_module_name_walks_packages(tmp_path):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "sub" / "__init__.py").write_text("")
    mod = tmp_path / "pkg" / "sub" / "m.py"
    mod.write_text("")
    assert module_name_for(mod) == "pkg.sub.m"
    loose = tmp_path / "loose.py"
    loose.write_text("")
    assert module_name_for(loose) == "loose"


def test_direct_call_resolves_and_locals_shadow(tmp_path):
    index = _index(
        tmp_path,
        {
            "m.py": """
            def helper():
                pass

            def calls_helper():
                helper()

            def shadowed_by_param(helper):
                helper()

            def shadowed_by_local():
                helper = len
                helper()
            """
        },
    )
    assert _callees(index, "m.calls_helper") == ["m.helper"]
    assert _callees(index, "m.shadowed_by_param") == [None]
    assert _callees(index, "m.shadowed_by_local") == [None]


def test_later_def_shadows_an_import(tmp_path):
    index = _index(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/a.py": """
            def helper():
                pass
            """,
            "pkg/b.py": """
            from pkg.a import helper

            def helper():
                pass

            def caller():
                helper()
            """,
        },
    )
    assert _callees(index, "pkg.b.caller") == ["pkg.b.helper"]


def test_imported_name_and_module_alias_resolve(tmp_path):
    index = _index(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/a.py": """
            def helper():
                pass

            class Widget:
                def __init__(self):
                    self.x = 1
            """,
            "pkg/b.py": """
            import pkg.a as things
            from pkg.a import Widget, helper

            def call_import():
                helper()

            def construct():
                return Widget()

            def construct_via_alias():
                return things.Widget()

            def call_via_alias():
                things.helper()
            """,
        },
    )
    assert _callees(index, "pkg.b.call_import") == ["pkg.a.helper"]
    assert _callees(index, "pkg.b.construct") == ["pkg.a.Widget.__init__"]
    assert _callees(index, "pkg.b.construct_via_alias") == ["pkg.a.Widget.__init__"]
    assert _callees(index, "pkg.b.call_via_alias") == ["pkg.a.helper"]


def test_self_super_and_inherited_methods_resolve_through_mro(tmp_path):
    index = _index(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/base.py": """
            class Base:
                def ping(self):
                    pass

                def tell(self):
                    self.ping()
            """,
            "pkg/sub.py": """
            from pkg.base import Base

            class Sub(Base):
                def ping(self):
                    pass

                def call_self(self):
                    self.ping()

                def call_super(self):
                    super().ping()

                def call_inherited(self):
                    self.tell()
            """,
        },
    )
    assert _callees(index, "pkg.base.Base.tell") == ["pkg.base.Base.ping"]
    # the subclass's override wins for self-calls ...
    assert _callees(index, "pkg.sub.Sub.call_self") == ["pkg.sub.Sub.ping"]
    # ... and super() starts the lookup past the own class (the inner
    # ``super()`` call expression itself is recorded, unresolved)
    assert _callees(index, "pkg.sub.Sub.call_super") == ["pkg.base.Base.ping", None]
    assert _callees(index, "pkg.sub.Sub.call_inherited") == ["pkg.base.Base.tell"]
    assert index.mro("pkg.sub.Sub") == ["pkg.sub.Sub", "pkg.base.Base"]


def test_decorated_methods_are_indexed_with_decorator_names(tmp_path):
    index = _index(
        tmp_path,
        {
            "m.py": """
            import functools

            class C:
                @property
                def value(self):
                    return 1

                @functools.lru_cache(maxsize=8)
                def cached(self):
                    return 2

                def caller(self):
                    return self.cached()
            """
        },
    )
    assert index.functions["m.C.value"].decorators == ("property",)
    assert index.functions["m.C.cached"].decorators == ("lru_cache",)
    assert _callees(index, "m.C.caller") == ["m.C.cached"]


def test_calls_through_arbitrary_objects_stay_unresolved(tmp_path):
    index = _index(
        tmp_path,
        {
            "m.py": """
            def caller(worker):
                worker.run()
                worker.pool.submit()
            """
        },
    )
    assert _callees(index, "m.caller") == [None, None]


def test_held_locks_are_recorded_per_call_site(tmp_path):
    index = _index(
        tmp_path,
        {
            "m.py": """
            import threading

            def helper():
                pass

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def locked_and_not(self):
                    with self._lock:
                        helper()
                    helper()
            """
        },
    )
    sites = sorted(
        index.functions["m.Store.locked_and_not"].calls, key=lambda s: s.line
    )
    assert [site.callee for site in sites] == ["m.helper", "m.helper"]
    assert [sorted(site.held) for site in sites] == [["_lock"], []]


def test_requires_lock_contract_lands_on_function_info(tmp_path):
    index = _index(
        tmp_path,
        {
            "m.py": """
            class Store:
                def _bump(self):  # requires-lock: _lock
                    pass
            """
        },
    )
    assert index.functions["m.Store._bump"].requires == frozenset({"_lock"})


def test_guarded_attrs_are_inherited_and_subclass_wins(tmp_path):
    index = _index(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/base.py": """
            import threading

            class Base:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []  # guarded-by: _lock
                    self._stats = {}  # guarded-by: _lock
            """,
            "pkg/sub.py": """
            import threading

            from pkg.base import Base

            class Sub(Base):
                def __init__(self):
                    super().__init__()
                    self._stats_lock = threading.Lock()
                    self._extra = {}  # guarded-by: _lock
                    self._stats = {}  # guarded-by: _stats_lock
            """,
        },
    )
    assert index.guarded_for_class("pkg.sub.Sub") == {
        "_items": ("_lock",),
        "_extra": ("_lock",),
        "_stats": ("_stats_lock",),  # the subclass's re-declaration wins
    }
    assert index.guarded_for_class("pkg.base.Base") == {
        "_items": ("_lock",),
        "_stats": ("_lock",),
    }


def test_same_stem_unpackaged_files_do_not_collide(tmp_path):
    index = _index(
        tmp_path,
        {
            "one/util.py": "def f():\n    pass\n",
            "two/util.py": "def g():\n    pass\n",
        },
    )
    assert len(index.modules) == 2
    assert any(name == "util" for name in index.modules)
    assert any(name.startswith("util@") for name in index.modules)
