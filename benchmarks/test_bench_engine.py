"""Compiled-engine bench: fused plans vs naive layer-by-layer forward.

PR 4's :class:`~repro.nn.engine.InferencePlan` compiles a ``Sequential``
into fused, workspace-reusing steps (see ``repro/nn/engine.py``).  This
bench regenerates the package-level claim of the paper's Section IV.B —
edge packages win by running fused, allocation-free kernels — on our own
numpy substrate.  The naive forward is the engine's test reference, so
both paths exist on purpose.

Asserted: plan output matches the naive ``Sequential.forward`` (allclose
1e-6), single and batched, for every benched model.

Printed, not asserted (a wall-clock ratio on a shared host is a
measurement, not a verdict): the plan-vs-naive speedup per conv
(MobileNet/SqueezeNet style) and recurrent (FastGRNN/EMI-RNN style)
scenario model — around 2x on a quiet host — and how much
``predict_batch`` over a stack amortizes the per-sample plan cost (the
serving layer's reason to stack).

Set ``REPRO_BENCH_SMOKE=1`` to shrink repeat counts for CI smoke runs.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import print_table
from repro.eialgorithms import build_mobilenet, build_squeezenet
from repro.eialgorithms.emirnn import EMIRNNClassifier
from repro.eialgorithms.fastgrnn import FastGRNNClassifier

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

REPEATS = 30 if SMOKE else 120
WARMUP = 5
BATCH = 16

#: conv scenario models: the safety/vehicles image pipelines.
CONV_MODELS = {
    "mobilenet-0.5x": lambda: (
        build_mobilenet((16, 16, 1), 3, 0.5, seed=0), (16, 16, 1)
    ),
    "squeezenet": lambda: (build_squeezenet((16, 16, 1), 3, seed=0), (16, 16, 1)),
}

#: recurrent scenario models: the health/home sequence pipelines.
RECURRENT_MODELS = {
    "fastgrnn-h16": lambda: (
        FastGRNNClassifier(input_size=6, hidden_size=16, num_classes=6, seed=0).model,
        (24, 6),
    ),
    "emi-rnn-w32": lambda: (
        EMIRNNClassifier(input_size=6, num_classes=4, window=32, stride=16,
                         hidden_size=16, seed=0).model,
        (32, 6),
    ),
}


def _best_seconds(fn, repeats: int = REPEATS) -> float:
    """Best-of-N wall clock: robust to scheduler noise on shared runners."""
    for _ in range(WARMUP):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_model(model, input_shape):
    rng = np.random.default_rng(0)
    single = rng.standard_normal((1, *input_shape))
    stacked = rng.standard_normal((BATCH, *input_shape))

    reference = model.forward(single, training=False)
    plan = model.compile_plan(force=True)
    produced = plan.execute(single)
    np.testing.assert_allclose(produced, reference, atol=1e-6)
    np.testing.assert_allclose(
        plan.predict_batch(stacked), model.forward(stacked, training=False), atol=1e-6
    )

    naive_s = _best_seconds(lambda: model.forward(single, training=False))
    plan_s = _best_seconds(lambda: plan.execute(single))
    naive_batch_s = _best_seconds(lambda: model.forward(stacked, training=False))
    plan_batch_s = _best_seconds(lambda: plan.predict_batch(stacked))
    return {
        "naive_ms": naive_s * 1e3,
        "plan_ms": plan_s * 1e3,
        "speedup": naive_s / plan_s,
        "batch_speedup": naive_batch_s / plan_batch_s,
        "plan_per_sample_batch_ms": plan_batch_s * 1e3 / BATCH,
        "fused": plan.fused_count,
        "workspace_kb": plan.arena.nbytes / 1024.0,
    }


def test_engine_plan_speedup_over_naive_forward():
    rows = []
    for family, models in (("conv", CONV_MODELS), ("recurrent", RECURRENT_MODELS)):
        for name, build in models.items():
            model, input_shape = build()
            stats = _bench_model(model, input_shape)
            rows.append(
                f"{family:<10s} {name:<16s} {stats['naive_ms']:>9.3f} {stats['plan_ms']:>9.3f} "
                f"{stats['speedup']:>7.2f}x {stats['batch_speedup']:>7.2f}x "
                f"{stats['plan_per_sample_batch_ms']:>10.4f} {stats['fused']:>5d} "
                f"{stats['workspace_kb']:>9.1f}"
            )
    print_table(
        "Compiled engine: fused plan vs naive layer-by-layer forward (batch 1)",
        f"{'family':<10s} {'model':<16s} {'naive ms':>9s} {'plan ms':>9s} "
        f"{'speedup':>8s} {'batch16':>8s} {'ms/sample':>10s} {'fused':>5s} {'arena KB':>9s}",
        rows,
    )


def test_engine_batching_amortizes_per_sample_cost():
    """predict_batch over a stack vs a per-sample loop over the same plan."""
    model, input_shape = RECURRENT_MODELS["fastgrnn-h16"]()
    rng = np.random.default_rng(1)
    stacked = rng.standard_normal((BATCH, *input_shape))
    plan = model.compile_plan(force=True)
    per_sample = _best_seconds(
        lambda: [plan.execute(stacked[i : i + 1]) for i in range(BATCH)],
        repeats=max(5, REPEATS // 4),
    )
    batched = _best_seconds(lambda: plan.predict_batch(stacked), repeats=max(5, REPEATS // 4))
    print_table(
        "Engine micro-batching (one fused forward vs per-sample loop)",
        f"{'batch':>5s} {'loop ms':>9s} {'batched ms':>10s} {'amortization':>12s}",
        [f"{BATCH:>5d} {per_sample*1e3:>9.3f} {batched*1e3:>10.3f} "
         f"{per_sample/batched:>11.2f}x"],
    )
