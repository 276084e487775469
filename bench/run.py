#!/usr/bin/env python3
"""The stage-resolved serving benchmark.  One command, from the repo root:

    python3 bench/run.py

runs all five workloads — a 20 s measured pass (the system as shipped,
six end-to-end metrics) then a 5 s traced pass (per-layer metrics and the
stage table) — prints every metric by name with its unit, and checks
that every response was correct; each pass runs in a process of its own.  With ``--workload`` it makes
exactly one pass and prints one JSON object as its last line:

    python3 bench/run.py --workload mixed_open --seed 7 --seconds 10 --trace 0

See ``bench/README.md`` for the glossary and how to read the output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

from servebench import host  # noqa: E402 - needs the path set up above
from servebench.passes import PassFailed, PassResult, run_pass  # noqa: E402
from servebench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

MEASURED_S = 20
TRACED_S = 5
#: Exit code when the host is too busy for the numbers to count.
EXIT_CONTENDED = 3

_RENAME = {"client.get": "transport (client.get self)", "loadgen.call": "loadgen.call (self)",
           "api.dispatch": "api.dispatch (self)", "fleet": "fleet (self)",
           "telemetry.record": "telemetry.record (self)"}


def _print_pass(result: PassResult) -> None:
    kind = "traced" if result.traced else "measured"
    print(f"\n== {result.workload} · {kind} pass · seed {result.seed} · {result.seconds:g} s")
    print(f"operations: attempted {result.attempted}, "
          f"succeeded {result.attempted - result.failed}, failed {result.failed}; "
          f"correct: {result.correct}")
    for key, value in result.notes.items():
        print(f"{key}: {json.dumps(value)}")
    if result.table is not None:
        for line in result.table.render(_RENAME):
            print(line)
    width = max(len(name) for name in result.metrics)
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<{width}s} {value:>14.4f} {unit}")


def _record(result: PassResult, probe: Dict[str, object]) -> Dict[str, object]:
    return {"workload": result.workload, "seed": result.seed, "seconds": result.seconds,
            "traced": result.traced, "host": probe, "notes": result.notes, **result.contract()}


def _suite(args: argparse.Namespace) -> int:
    """Every workload, measured then traced, each pass in a process of its own.

    One process per pass is what the PR driver does too, and it keeps a
    pass from inheriting the previous one's heap (``batch_inproc`` reads
    its own process's RSS).  The passes run back to back, so they are
    told the load average is the suite's own.
    """
    if args.out is not None:
        args.out.write_text("", encoding="utf-8")
    worst = 0
    for name in WORKLOADS:
        for seconds, traced in ((MEASURED_S, 0), (TRACED_S, 1)):
            command = [sys.executable, str(Path(__file__).resolve()), "--allow-contended",
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds or seconds), "--trace", str(traced)]
            if args.out is not None:
                command += ["--out", str(args.out)]
            worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="make one pass of this workload instead of the full suite")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed seconds per pass (suite default: {MEASURED_S} measured, "
                             f"{TRACED_S} traced)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 makes the traced per-layer pass")
    parser.add_argument("--allow-contended", action="store_true",
                        help="measure even when the contention probe says the host is busy")
    parser.add_argument("--out", type=Path, default=None,
                        help="also append every pass to this file, one JSON object per line "
                             "(nothing is written otherwise)")
    args = parser.parse_args(argv)

    probe = host.probe()
    print(f"host: max sleep gap {probe['host.max_gap_ms']:.2f} ms, load1 {probe['host.load1']:.2f} "
          f"on {probe['cores']} cores, rivals {probe['rivals']}, contended: {probe['contended']}",
          flush=True)
    if probe["contended"] and not args.allow_contended:
        print("refusing to measure on a contended host: a benchmark run under contention "
              "does not count (pass --allow-contended to run anyway)", file=sys.stderr)
        return EXIT_CONTENDED
    if args.workload is None:
        return _suite(args)

    workload = WORKLOADS[args.workload]
    try:
        result = run_pass(workload, args.seed, args.seconds or MEASURED_S, bool(args.trace))
    except PassFailed as exc:
        print(f"{workload.name}: {exc}", file=sys.stderr)
        return 1
    if result.traced:
        result.metrics["host.max_gap_ms"] = (float(probe["host.max_gap_ms"]), "ms")
        result.metrics["host.load1"] = (float(probe["host.load1"]), "load")
    _print_pass(result)
    if args.out is not None:
        with args.out.open("a", encoding="utf-8") as out:
            out.write(json.dumps(_record(result, probe)) + "\n")
    print(json.dumps(result.contract()), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
