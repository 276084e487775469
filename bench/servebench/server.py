"""The server subprocess: fleet + one gateway, driven over stdin/stdout.

The HTTP workloads never share a GIL with the load generator — the
prototype read 442–482 rps with the server in-process and 636–651 rps
with it in its own.  ``bench/run.py`` starts this module as a child,
reads one ``ready`` line (port + fleet instance ids), sends traffic, and
writes ``stop``; the child answers with one JSON report line and exits
(``rss`` asks for the peak resident set so far, ``canary`` starts the
managed workload's rollout).
Stdin reaching EOF means the parent is gone, which also stops the child,
so a killed benchmark leaves no listening socket behind.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.serving import FleetGateway, LibEIServer

from servebench.spans import SpanRecorder
from servebench.stack import ControlPlane, build_fleet, record_camera_series
from servebench.traced import TracedDispatcher
from servebench.workloads import WORKLOADS


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``), in MB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def serve(workload_name: str, traced: bool, workdir: Optional[Path]) -> Dict[str, object]:
    workload = WORKLOADS[workload_name]
    recorder = SpanRecorder() if traced else None
    emulated: Dict[str, List[float]] = {}
    control: Optional[ControlPlane] = None
    if workload.managed:
        if workdir is None:
            raise SystemExit("a managed workload needs --workdir for its WAL and blob store")
        control = ControlPlane(workdir, recorder)
    fleet = build_fleet(recorder, telemetry=control.telemetry if control else None,
                        emulated=emulated)
    if workload.name == "data_read":
        record_camera_series(fleet)
    if control is not None:
        control.attach(fleet)
    dispatcher = None
    if recorder is None:
        server = FleetGateway(fleet)
    else:
        dispatcher = TracedDispatcher(fleet, recorder)
        server = LibEIServer(dispatcher)
    report: Dict[str, object] = {}
    with server:
        print(json.dumps({
            "ready": True,
            "port": server.address[1],
            "instance_ids": [i.instance_id for i in fleet],
        }), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "canary" and control is not None:
                control.begin_canary()
            elif command == "rss":
                print(json.dumps({"rss_mb": peak_rss_mb()}), flush=True)
            elif command == "stop":
                break
        report["rss_end_mb"] = peak_rss_mb()
    if control is not None:
        control.close()
        report["promotes"] = control.rollout.stats.promotions
        report["canary_to_promote_s"] = control.canary_to_promote_s
        report["check_ns"] = control.check_ns
        report["step_ns"] = control.step_ns
        if traced:
            report["recovery"] = control.time_recovery()
    if recorder is not None and dispatcher is not None:
        report["spans"] = recorder.rows()
        report["body_bytes"] = dispatcher.body_bytes
        report["emulated"] = emulated
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--traced", type=int, default=0, choices=(0, 1))
    parser.add_argument("--workdir", type=Path, default=None)
    args = parser.parse_args(argv)
    # Ctrl-C reaches the whole foreground process group; the parent decides
    # when this child stops (by closing stdin), so the signal is ignored here
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    report = serve(args.workload, bool(args.traced), args.workdir)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
