"""Every reference the docs and the code make must still resolve.

README.md and docs/*.md show code in fenced blocks; a ``from repro...
import ...`` or ``import repro...`` line there is a promise to the reader.
When a name is deleted or moved, the doc that quotes it fails here
instead of failing the first reader who copies it.  The same holds for
the other two kinds of reference: a relative Markdown link in any
``*.md`` of the repo, and a ``*.md`` file a module, test, benchmark or
example cites.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

#: ``[text](target)``, the target without its ``#anchor``
LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)\s]*)?\)")
#: a ``*.md`` file named in Python source, as a path from the repo root
CITATION = re.compile(r"(?<![\w./-])([\w./-]*\w\.md)\b")
CITING_TREES = ("src", "tests", "benchmarks", "examples")

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


def broken_links(markdown: Path) -> List[str]:
    """The relative link targets in ``markdown`` that name no file or directory."""
    return [
        target
        for target in LINK.findall(markdown.read_text(encoding="utf-8"))
        if not target.startswith(("http://", "https://", "mailto:"))
        and not (markdown.parent / target).exists()
    ]


def dangling_citations(text: str) -> List[str]:
    """The ``*.md`` names in ``text`` with no such file under the repo root."""
    return [name for name in CITATION.findall(text) if not (ROOT / name).exists()]


def test_relative_markdown_links_resolve():
    broken = {
        markdown.relative_to(ROOT).as_posix(): broken_links(markdown)
        for markdown in ROOT.rglob("*.md")
        if ".git" not in markdown.relative_to(ROOT).parts
    }
    assert {doc: targets for doc, targets in broken.items() if targets} == {}


def test_docs_cited_by_the_code_exist():
    dangling = {
        path.relative_to(ROOT).as_posix(): dangling_citations(path.read_text(encoding="utf-8"))
        for tree in CITING_TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
        if path != Path(__file__).resolve()  # the examples below are meant to dangle
    }
    assert {source: names for source, names in dangling.items() if names} == {}


def test_a_dangling_link_or_citation_is_caught(tmp_path):
    (tmp_path / "kept.md").write_text("", encoding="utf-8")
    page = tmp_path / "page.md"
    page.write_text(
        "[kept](kept.md#top) [gone](gone.md) [web](https://example.org/x.md) [dir](.)",
        encoding="utf-8",
    )
    assert broken_links(page) == ["gone.md"]
    assert dangling_citations("see docs/API.md and DESIGN.md §4; docs/*.md") == ["DESIGN.md"]
