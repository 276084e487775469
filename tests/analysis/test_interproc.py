"""Interprocedural rules over multi-file projects.

The golden fixtures cover single-file shapes; these tests build small
packages under ``tmp_path`` to prove the properties that only exist
across modules: cross-module chains, the depth bound, suppressions at
inner frames, and contracts inherited through subclassing.
"""

from __future__ import annotations

import textwrap

from repro.analysis import run_lint
from repro.analysis.interproc import MAX_CHAIN_DEPTH


def _project(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return str(tmp_path)


SVC = """
    import threading

    from pkg.util import settle


    class Service:
        def __init__(self):
            self._lock = threading.Lock()

        def refresh(self):
            with self._lock:
                settle()
    """


def test_cross_module_transitive_blocking_needs_the_interproc_pass(tmp_path):
    root = _project(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/util.py": """
            import time


            def settle():
                time.sleep(0.01)
            """,
            "pkg/svc.py": SVC,
        },
    )
    report = run_lint([root])
    assert [f.rule for f in report.findings] == ["blocking-under-lock"]
    finding = report.findings[0]
    assert finding.path.endswith("svc.py")
    assert "pkg.util.settle" in finding.message
    assert "time.sleep under a lock" in finding.message or "sleep" in finding.message
    # the chain witness runs caller -> blocking frame
    assert "svc.py" in finding.chain[0]
    assert "util.py" in finding.chain[-1]
    assert len(finding.chain) == 2


def test_chains_deeper_than_the_bound_are_dropped(tmp_path):
    hops = ["import time", "", "", "def hop0():", "    time.sleep(0.01)", ""]
    for i in range(1, MAX_CHAIN_DEPTH + 1):
        hops += ["", f"def hop{i}():", f"    hop{i - 1}()", ""]
    root = _project(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/hops.py": "\n".join(hops),
            "pkg/svc.py": """
            import threading

            from pkg.hops import hop6, hop8


            class Service:
                def __init__(self):
                    self._lock = threading.Lock()

                def in_bound(self):
                    with self._lock:
                        hop6()

                def past_bound(self):
                    with self._lock:
                        hop8()
            """,
        },
    )
    report = run_lint([root])
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert finding.rule == "blocking-under-lock"
    assert "hop6" in finding.message
    # hop6 is 7 frames from the terminal; the witness adds the call site
    assert len(finding.chain) == MAX_CHAIN_DEPTH
    assert "hop8" not in finding.message


def test_suppression_at_an_inner_cross_module_frame_stops_propagation(tmp_path):
    root = _project(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/util.py": """
            import time


            def raw_wait():
                time.sleep(0.01)


            def settle():
                # lint: ignore[blocking-under-lock] bounded 10ms settle, measured under every hold budget
                raw_wait()
            """,
            "pkg/svc.py": SVC,
        },
    )
    report = run_lint([root])
    assert report.findings == []


def test_requires_lock_contract_is_inherited_by_subclass_callers(tmp_path):
    root = _project(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/base.py": """
            class Base:
                def _bump(self, key):  # requires-lock: _lock
                    pass
            """,
            "pkg/sub.py": """
            import threading

            from pkg.base import Base


            class Sub(Base):
                def __init__(self):
                    self._lock = threading.Lock()

                def bad(self, key):
                    self._bump(key)

                def good(self, key):
                    with self._lock:
                        self._bump(key)
            """,
        },
    )
    report = run_lint([root])
    assert [f.rule for f in report.findings] == ["requires-lock-not-held"]
    finding = report.findings[0]
    assert finding.path.endswith("sub.py")
    assert "pkg.base.Base._bump" in finding.message
    assert "declares" in finding.message


def test_guarded_attr_declared_on_a_base_class_escapes_in_the_subclass(tmp_path):
    root = _project(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/base.py": """
            import threading


            class Base:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}  # guarded-by: _lock
            """,
            "pkg/sub.py": """
            from pkg.base import Base


            class Sub(Base):
                def entries(self):
                    return self._entries

                def safe_entries(self):
                    return dict(self._entries)
            """,
        },
    )
    report = run_lint([root])
    assert [f.rule for f in report.findings] == ["mutable-return"]
    finding = report.findings[0]
    assert finding.path.endswith("sub.py")
    assert "'_entries'" in finding.message
