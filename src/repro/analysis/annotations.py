"""Comment-carried contracts: guarded-by, requires-lock, suppressions.

The linter's concurrency rules are driven by lightweight annotations in
ordinary comments, so the contracts live next to the state they protect
and survive refactors that move code between files:

``# guarded-by: <lock>[, <lock> ...]``
    Trailing comment on an attribute's declaration (an ``self.x = ...``
    assignment in ``__init__`` or a dataclass field line).  Declares that
    the attribute may only be *mutated* inside a ``with <...>.<lock>:``
    block; when several locks are named, holding *any one* of them makes
    the mutation legal.  The lock is named by its attribute name, so ``_lock`` matches
    ``with self._lock:`` as well as ``with queue._lock:`` — guarded state
    and its lock do not need to live on the same object (the fleet's
    ``_stats_lock`` guards each instance's ``requests_served``).

``# requires-lock: <lock>``
    On (or immediately under) a ``def`` line.  Asserts the function is
    only ever called with the named lock already held, so mutations of
    attributes guarded by that lock are legal in its body.  This is the
    escape hatch for helper methods like ``AdaptiveController._reselect``
    whose caller holds the lock across the call.

``# lint: ignore[rule-id, ...] reason``
    Suppresses the named rules on that line (trailing) or on the next
    code line (standalone comment).  The reason is mandatory; an empty
    reason is reported by the ``bad-suppression`` meta-rule.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.findings import Suppression

_LOCK_LIST = r"(?P<locks>[A-Za-z_][A-Za-z0-9_]*(?:\s*,\s*[A-Za-z_][A-Za-z0-9_]*)*)"
GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*" + _LOCK_LIST)
REQUIRES_LOCK_RE = re.compile(r"#\s*requires-lock:\s*" + _LOCK_LIST)


def _lock_names(match: "re.Match") -> Tuple[str, ...]:
    return tuple(name.strip() for name in match.group("locks").split(","))
SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*ignore\[(?P<rules>[^\]]*)\](?P<reason>.*)$"
)


@dataclass
class CommentMap:
    """Every comment in one file, keyed by line, plus parsed contracts."""

    #: line -> full comment text (including the leading ``#``)
    comments: Dict[int, str] = field(default_factory=dict)
    #: line -> lock names for ``# guarded-by:`` comments.  Several locks
    #: may be named (comma-separated): the attribute is safe to mutate
    #: while holding *any* of them (e.g. a stats counter written under
    #: either the queue condition or the flush lock).
    guarded_by: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    #: line -> lock names for ``# requires-lock:`` comments (all of the
    #: named locks are asserted held by the caller)
    requires_lock: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    #: lines that hold only a comment (no code) — standalone suppressions
    #: on these lines apply to the next code line
    standalone: Dict[int, bool] = field(default_factory=dict)
    suppressions: List[Suppression] = field(default_factory=list)


def scan_comments(source: str) -> CommentMap:
    """Tokenize one file and extract every annotation comment."""
    result = CommentMap()
    code_lines = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return result
    for token in tokens:
        if token.type == tokenize.COMMENT:
            line = token.start[0]
            result.comments[line] = token.string
            guarded = GUARDED_BY_RE.search(token.string)
            if guarded:
                result.guarded_by[line] = _lock_names(guarded)
            requires = REQUIRES_LOCK_RE.search(token.string)
            if requires:
                result.requires_lock[line] = _lock_names(requires)
        elif token.type not in (
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENCODING,
            tokenize.ENDMARKER,
        ):
            for covered in range(token.start[0], token.end[0] + 1):
                code_lines.add(covered)
    for line in result.comments:
        result.standalone[line] = line not in code_lines
    _collect_suppressions(result, code_lines)
    return result


def _collect_suppressions(result: CommentMap, code_lines) -> None:
    """Parse ``# lint: ignore[...]`` comments into :class:`Suppression`s.

    A standalone suppression comment attaches to the next code line so it
    can sit above a long statement; a trailing one attaches in place.
    """
    max_line = max(code_lines) if code_lines else 0
    for line, text in sorted(result.comments.items()):
        match = SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = frozenset(
            rule.strip() for rule in match.group("rules").split(",") if rule.strip()
        )
        reason = match.group("reason").strip()
        target = line
        if result.standalone.get(line):
            target = next(
                (code for code in range(line + 1, max_line + 1) if code in code_lines),
                line,
            )
        result.suppressions.append(
            Suppression(line=target, rules=rules, reason=reason, raw=text.strip())
        )

