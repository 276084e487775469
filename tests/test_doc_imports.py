"""Every ``repro`` import quoted in the docs must still resolve.

README.md and docs/*.md show code in fenced blocks; a ``from repro...
import ...`` or ``import repro...`` line there is a promise to the reader.
When a name is deleted or moved, the doc that quotes it fails here
instead of failing the first reader who copies it.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

FENCE = re.compile(r"^\s*(```|~~~)")
FROM_IMPORT = re.compile(r"^\s*from\s+(repro(?:\.\w+)*)\s+import\s+(.+)$")
IMPORT = re.compile(r"^\s*import\s+(repro(?:\.\w+)*)")


def _statements(text: str):
    """``(line number, module, names)`` for each repro import in a fenced block."""
    fenced, pending = False, None
    for number, line in enumerate(text.splitlines(), start=1):
        if FENCE.match(line):
            fenced, pending = not fenced, None
            continue
        if not fenced:
            continue
        if pending is not None:  # inside a parenthesized name list
            start, module, names = pending
            names += line.split("#")[0]
            if ")" in line:
                pending = None
                yield start, module, names
            else:
                pending = (start, module, names)
            continue
        match = FROM_IMPORT.match(line)
        if match:
            names = match.group(2).split("#")[0]
            if "(" in names and ")" not in names:
                pending = (number, match.group(1), names)
            else:
                yield number, match.group(1), names
            continue
        match = IMPORT.match(line)
        if match:
            yield number, match.group(1), ""


def unresolved(text: str) -> List[str]:
    """The quoted imports in ``text`` that do not resolve, as ``line: statement``."""
    failures = []
    for number, module_name, names in _statements(text):
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            failures.append(f"{number}: {module_name} ({exc})")
            continue
        for part in names.replace("(", " ").replace(")", " ").split(","):
            name = part.split()[0] if part.split() else ""  # drops an "as" alias
            if not name or hasattr(module, name):
                continue
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ImportError:
                failures.append(f"{number}: from {module_name} import {name}")
    return failures


def test_doc_imports_resolve():
    failures = {
        doc.relative_to(ROOT).as_posix(): unresolved(doc.read_text(encoding="utf-8"))
        for doc in DOCS
    }
    assert {doc: lines for doc, lines in failures.items() if lines} == {}


def test_a_quoted_deleted_name_is_caught():
    doc = "```python\nfrom repro.nn import (\n    SGD,\n    Momentum,\n)\nimport repro.gone\n```\n"
    assert unresolved(doc) == [
        "2: from repro.nn import Momentum",
        "6: repro.gone (No module named 'repro.gone')",
    ]
