"""Serving-suite conftest: opt-in runtime lock watching.

``REPRO_LOCKWATCH=1`` wraps every test in this directory — including
the chaos suite — in :mod:`repro.analysis.lockwatch` instrumentation:
locks allocated by repro code during the test are recorded into a
lock-order graph, and the test fails on an acquisition cycle (potential
deadlock) or on a hold span over the ``REPRO_LOCKWATCH_BUDGET_S``
budget (default 1s).  CI runs the serving subset both ways; plain local
runs pay zero overhead.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import lockwatch


@pytest.fixture(autouse=True)
def _lockwatch_guard():
    if os.environ.get("REPRO_LOCKWATCH") != "1":
        yield
        return
    budget_s = float(os.environ.get("REPRO_LOCKWATCH_BUDGET_S") or 1.0)
    with lockwatch.watched(budget_s=budget_s) as watch:
        yield
    watch.assert_clean()
