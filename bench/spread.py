#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the acceptance rule takes it.

    python3 bench/spread.py [--runs 10] [--seconds N] [--workload NAME ...] [--out FILE]

Makes ``--runs`` measured passes of each workload, each with another
seed, and prints for every (workload, metric) the median and the
interquartile range as a share of the median — the number each bound in
``BENCHMARK.json`` has to stay above.  Passes run one after another, so
the load average is this tool's own; the contention probe is told so.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from servebench.stats import spread  # noqa: E402 - needs the path set up above


def main() -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: Dict[str, Dict[str, List[float]]] = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        per_metric = values.setdefault(workload, {})
        for run in range(args.runs):
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--allow-contended",
                 "--workload", workload, "--seed", str(args.first_seed + run),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {args.first_seed + run}: incorrect run\n{done.stdout}",
                      file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            print(f"{workload} run {run + 1}/{args.runs} done", file=sys.stderr)
        for name, series in per_metric.items():
            share = spread(series)
            flag = "" if share <= bounds[name] / 3 else ("  > bound/3" if share <= bounds[name]
                                                         else "  > BOUND")
            print(f"{workload:<15s} {name:<16s} median {statistics.median(series):>12.4f}  "
                  f"spread {share:>7.4f}  bound {bounds[name]:.2f}{flag}", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
