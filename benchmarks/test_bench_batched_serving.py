"""Batched vs per-request libei serving — RPS at fleet sizes 1 and 4.

PR 1's fleet gateway still answered every ``/ei_algorithms`` request with
one model call.  The :class:`~repro.serving.batching.BatchingDispatcher`
coalesces concurrent same-algorithm requests into a single vectorized
``predict`` over stacked inputs (the algorithm's one handler takes a
list of calls; see :meth:`repro.core.openei.OpenEI.register_algorithm`).
Unbatched, every request reaches that handler as a list of one.

The workload is the kind that benefits most on an edge device: a
FastGRNN sequence classifier whose forward pass walks timesteps in a
Python loop, so per-call overhead dwarfs the arithmetic — exactly the
overhead micro-batching amortizes.  Two invariants are asserted:

* batching actually coalesces (mean batch size above 2) — the RPS ratio
  it buys is printed (2-4x at fleet size 4, host permitting), not
  asserted;
* responses are **byte-identical** to the unbatched path (modulo the
  routing-dependent ``served_by`` tag), request by request.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the workload for CI smoke runs.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from benchmarks.conftest import print_table
from repro.eialgorithms.fastgrnn import FastGRNNClassifier
from repro.serving import BatchingConfig, BatchingDispatcher, EdgeFleet, LibEIDispatcher

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

TIMESTEPS, FEATURES, CLASSES = 24, 9, 6
REQUESTS = 96 if SMOKE else 384
CONCURRENCY = 24
MAX_BATCH_SIZE = 16
FLUSH_WINDOW_S = 0.025
FLEET_SIZES = (1, 4)

DEVICE_POOL = ["raspberry-pi-4", "jetson-tx2", "mobile-phone", "edge-server"]

#: One shared classifier: both fleets must produce identical bytes.
CLASSIFIER = FastGRNNClassifier(
    input_size=FEATURES, hidden_size=32, num_classes=CLASSES, seed=0
)
_BASE_SEQUENCE = np.linspace(-1.0, 1.0, TIMESTEPS * FEATURES).reshape(
    1, TIMESTEPS, FEATURES
)


def _sequence(seed: int) -> np.ndarray:
    """A deterministic (1, T, F) sequence derived from the request seed."""
    return _BASE_SEQUENCE * ((int(seed) % 13) - 6)


def classify_batch(ei, calls):
    """One forward pass over the stacked sequences of every call in the list."""
    stacked = np.concatenate([_sequence(args["seed"]) for args in calls])
    proba = CLASSIFIER.predict_proba(stacked)
    return [
        {
            "seed": int(args["seed"]),
            "label": int(proba[i].argmax()),
            "confidence": round(float(proba[i].max()), 6),
        }
        for i, args in enumerate(calls)
    ]


def build_fleet(size: int) -> EdgeFleet:
    fleet = EdgeFleet.deploy([DEVICE_POOL[i % len(DEVICE_POOL)] for i in range(size)])
    fleet.register_algorithm("health", "classify", batch_handler=classify_batch)
    return fleet


def run_workload(target, requests: int = REQUESTS):
    """Fire ``requests`` concurrent libei calls; return (rps, responses)."""
    dispatcher = LibEIDispatcher(target)
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CONCURRENCY) as pool:
        futures = [
            pool.submit(
                dispatcher.handle_path, f"/ei_algorithms/health/classify/?seed={i}"
            )
            for i in range(requests)
        ]
        bodies = [future.result() for future in futures]
    elapsed = time.perf_counter() - start
    return requests / elapsed, bodies


def canonical(bodies) -> str:
    """Responses as canonical JSON, keyed by seed, without the routing tag."""
    by_seed = {
        body["result"]["seed"]: {
            key: value
            for key, value in body["result"].items()
            if key != "served_by"
        }
        for body in bodies
    }
    return json.dumps(by_seed, sort_keys=True)


@pytest.mark.parametrize("fleet_size", FLEET_SIZES)
def test_batched_vs_per_request_rps(benchmark, fleet_size):
    per_request_fleet = build_fleet(fleet_size)
    batched_fleet = build_fleet(fleet_size)
    batched = BatchingDispatcher(
        batched_fleet,
        BatchingConfig(max_batch_size=MAX_BATCH_SIZE, flush_window_s=FLUSH_WINDOW_S),
    )

    per_request_rps, per_request_bodies = run_workload(per_request_fleet)
    batched_rps, batched_bodies = run_workload(batched)
    speedup = batched_rps / per_request_rps
    stats = batched.stats

    benchmark(per_request_fleet.call_algorithm, "health", "classify", {"seed": 1})

    print_table(
        f"Batched vs per-request serving — fleet size {fleet_size}",
        f"{'fleet':>6s} {'per-req RPS':>12s} {'batched RPS':>12s} "
        f"{'speedup':>8s} {'mean batch':>11s}",
        [
            f"{fleet_size:>6d} {per_request_rps:>12.0f} {batched_rps:>12.0f} "
            f"{speedup:>8.2f} {stats.mean_batch_size:>11.1f}"
        ],
    )

    # responses must be byte-identical to the unbatched path
    assert canonical(batched_bodies) == canonical(per_request_bodies)
    # every request was answered, and batching actually coalesced
    assert stats.requests == REQUESTS
    assert stats.mean_batch_size > 2.0
    # the speedup is printed, not asserted: a wall-clock ratio on a shared
    # 2-core host is a measurement (1.7x-4x run to run), not a verdict; the
    # mechanism it comes from — coalescing — is asserted just above


def test_batched_requests_land_on_single_replicas():
    """Each micro-batch is answered by exactly one replica (one served_by per batch)."""
    fleet = build_fleet(4)
    batched = BatchingDispatcher(
        fleet, BatchingConfig(max_batch_size=8, flush_window_s=FLUSH_WINDOW_S)
    )
    _, bodies = run_workload(batched, requests=64)
    served_by = {body["result"]["served_by"] for body in bodies}
    # round-robin over the fleet: batches spread across replicas...
    assert len(served_by) > 1
    # ...but the per-replica request counters account for every request
    assert sum(instance.requests_served for instance in fleet) == 64
