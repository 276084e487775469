"""Make ``servebench`` importable for the benchmark's own unit tests.

These tests are pure — no sockets, no sleeps, no subprocess — so the
tier-1 command that collects them stays a verdict and stays fast.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
for path in (str(BENCH_DIR), str(BENCH_DIR.parent / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
