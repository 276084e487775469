"""Golden-file tests for every lint rule.

Each ``fixtures/case_*.py`` file marks expected findings with trailing
``# EXPECT[rule-id]`` comments; the test asserts the linter reports
exactly those (line, rule) pairs and nothing else.  Suppression lines in
the fixtures double as the suppression-path coverage: they must appear
in the report's ``suppressed`` list, not its findings.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis import run_lint

FIXTURES = Path(__file__).parent / "fixtures"
EXPECT_RE = re.compile(r"#.*EXPECT\[(?P<rules>[^\]]+)\]")

CASE_FILES = sorted(
    path for path in FIXTURES.rglob("case_*.py") if path.name != "case_bad_suppression.py"
)


def expected_findings(path: Path) -> dict:
    """Parse ``# EXPECT[rule-id]`` markers into {line: {rule, ...}}."""
    expected: dict = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = EXPECT_RE.search(line)
        if match:
            rules = {rule.strip() for rule in match.group("rules").split(",")}
            expected[lineno] = rules
    return expected


def actual_findings(report) -> dict:
    actual: dict = {}
    for finding in report.findings:
        actual.setdefault(finding.line, set()).add(finding.rule)
    return actual


@pytest.mark.parametrize("case", CASE_FILES, ids=lambda p: p.stem)
def test_fixture_findings_match_expect_markers(case):
    expected = expected_findings(case)
    assert expected, f"{case.name} has no EXPECT markers — fixture is inert"
    report = run_lint([str(case)])
    assert actual_findings(report) == expected


@pytest.mark.parametrize("case", CASE_FILES, ids=lambda p: p.stem)
def test_fixture_suppressions_are_honored(case):
    """Every fixture carries at least one reasoned suppression, and the
    engine must route those findings to the suppressed list."""
    if "lint: ignore[" not in case.read_text():
        pytest.skip(f"{case.name} exercises no suppression")
    report = run_lint([str(case)])
    assert report.suppressed, f"{case.name}: suppression was not applied"
    for finding, suppression in report.suppressed:
        assert finding.rule in suppression.rules
        assert suppression.reason


def test_bad_suppression_meta_rule():
    """Malformed suppressions (unknown rule, empty rules, no reason) are
    reported, and a reason-less suppression does not actually suppress."""
    case = FIXTURES / "case_bad_suppression.py"
    source = case.read_text().splitlines()
    report = run_lint([str(case)])
    actual = actual_findings(report)

    def line_of(snippet: str) -> int:
        return next(i for i, text in enumerate(source, start=1) if snippet in text)

    assert actual[line_of("return value")] == {"bad-suppression"}  # unknown rule id
    assert actual[line_of("def missing_reason")] == {
        "bad-suppression",       # no reason given
        "mutable-default-arg",   # ...so the finding is NOT suppressed
    }
    assert actual[line_of("forgot to name the rule") + 1] == {"bad-suppression"}
    # the well-formed suppression at the bottom works
    assert line_of("def good_suppression") not in actual
    assert len(actual) == 3


def test_select_and_ignore_filter_rules():
    case = FIXTURES / "case_mutable_default.py"
    only = run_lint([str(case)], select=["mutable-default-arg"])
    assert {f.rule for f in only.findings} == {"mutable-default-arg"}
    none = run_lint([str(case)], ignore=["mutable-default-arg", "bad-suppression"])
    assert none.findings == []


def test_exclude_skips_matching_paths():
    report = run_lint([str(FIXTURES)], exclude=["fixtures"])
    assert report.files_checked == 0
    assert report.findings == []


def test_parse_error_is_a_finding(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def half(:\n")
    report = run_lint([str(broken)])
    assert [f.rule for f in report.findings] == ["parse-error"]
