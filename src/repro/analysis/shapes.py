"""Static shape/dtype checking for :class:`~repro.nn.model.Sequential`.

Not an independent interpreter: every layer kind declares its input
contract once, in ``Layer.output_shape`` (the call ``forward`` and the
compiled plan's native steps validate with at run time), and
:func:`check_model` walks a declared input shape (excluding the batch
axis) through those same methods before any request exists.  A layer
that rejects its input raises its named ``ShapeError`` /
``ConfigurationError``; the message becomes the finding at that layer
index, verbatim — rank, Dense fan-in, conv channels, a kernel that
collapses the map, pool divisibility, BatchNorm width, features per
recurrent step.  One finding per violated layer, and the walk stops
there: what flows out of a layer that refused its input is unknowable.
An ``output_shape`` that raises anything else (a layer from outside the
library unpacking the wrong rank) is a finding too.

Independently of shapes, every layer's parameters must be float64 (the
engine's GEMM kernels assume it); a stale or hand-edited artifact with
integer weights is rejected before it reaches a replica.

On top of the walk the report carries the compiled plan's summary, from
the real :func:`repro.nn.engine._compile_steps` translation (structure
only — no buffers are allocated): which layers went native, which
fused, and which fell back to ``layer.forward``.

:func:`check_model` returns a :class:`ShapeReport`; :func:`validate_model`
raises :class:`~repro.exceptions.AnalysisError` naming the offending
layer index.  ``core/registry.ModelRegistry.publish`` and
``serving/rollout.RolloutController.deploy``/``begin`` call it as a
gate (both with an opt-out flag).

Run the module directly to sweep the repo's model corpus::

    PYTHONPATH=src python -m repro.analysis.shapes [--format json]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import AnalysisError, ReproError

Shape = Tuple[int, ...]


@dataclass(frozen=True)
class TensorSpec:
    """What flows between layers: a concrete per-sample shape (no batch axis) + dtype."""

    shape: Shape
    dtype: str = "float64"

    def render(self) -> str:
        dims = ", ".join(str(d) for d in self.shape)
        return f"({dims}):{self.dtype}"


@dataclass(frozen=True)
class ShapeFinding:
    """One contract violation at one layer."""

    index: int
    layer: str
    message: str

    def render(self) -> str:
        return f"layer {self.index} ({self.layer}): {self.message}"


@dataclass
class LayerTrace:
    """One layer's inferred transfer, for reports and artifacts."""

    index: int
    layer: str
    kind: str
    input: TensorSpec
    output: TensorSpec

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "layer": self.layer,
            "kind": self.kind,
            "input": list(self.input.shape),
            "output": list(self.output.shape),
            "dtype": self.output.dtype,
        }


@dataclass
class ShapeReport:
    """The outcome of one model check."""

    model: str
    input: TensorSpec
    traces: List[LayerTrace] = field(default_factory=list)
    findings: List[ShapeFinding] = field(default_factory=list)
    #: compiled-plan summary: counts of native / fused / fallback steps
    native_steps: int = 0
    fused_activations: int = 0
    #: layer indices the engine could not translate to native steps
    fallback_layers: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def output(self) -> Optional[TensorSpec]:
        return self.traces[-1].output if self.traces else self.input

    def as_dict(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "ok": self.ok,
            "input": list(self.input.shape),
            "output": list(self.output.shape) if self.output else None,
            "layers": [t.as_dict() for t in self.traces],
            "findings": [
                {"index": f.index, "layer": f.layer, "message": f.message}
                for f in self.findings
            ],
            "native_steps": self.native_steps,
            "fused_activations": self.fused_activations,
            "fallback_layers": self.fallback_layers,
        }


def _param_dtype_findings(layer: object) -> List[str]:
    problems = []
    for key, value in getattr(layer, "_params", {}).items():
        if isinstance(value, np.ndarray) and value.dtype != np.float64:
            problems.append(
                f"parameter '{key}' is {value.dtype}, engine kernels expect "
                f"float64"
            )
    return problems


def check_model(
    model, input_shape: Sequence[int], dtype: str = "float64"
) -> ShapeReport:
    """Walk ``input_shape`` through the layers' own ``output_shape``
    contracts and report every violation plus the compiled-plan summary."""
    spec = TensorSpec(tuple(input_shape), dtype)
    name = getattr(model, "name", None) or type(model).__name__
    report = ShapeReport(model=str(name), input=spec)
    if not np.issubdtype(np.dtype(dtype), np.floating):
        report.findings.append(
            ShapeFinding(
                index=-1,
                layer="<input>",
                message=f"input dtype {dtype} is not floating point",
            )
        )
    # the shape walk stops at the first layer that rejects its input (what
    # flows out of it is unknowable); the parameter check does not depend on
    # shapes and still visits every layer
    walking = True
    for index, layer in enumerate(getattr(model, "layers", [])):
        label = getattr(layer, "label", type(layer).__name__)
        messages: List[str] = []
        if walking:
            try:
                out = TensorSpec(tuple(int(d) for d in layer.output_shape(spec.shape)), dtype)
            except ReproError as exc:
                walking = False
                messages.append(str(exc))
            except Exception as exc:
                # a layer from outside the library whose output_shape trips
                # over the shape (unpacking the wrong rank, say) rejected it
                walking = False
                messages.append(f"output_shape({spec.render()}) failed: {exc}")
            else:
                report.traces.append(
                    LayerTrace(
                        index=index,
                        layer=label,
                        kind=getattr(layer, "kind", "layer"),
                        input=spec,
                        output=out,
                    )
                )
                spec = out
        messages.extend(_param_dtype_findings(layer))
        for message in messages:
            report.findings.append(
                ShapeFinding(index=index, layer=label, message=message)
            )
    _summarize_plan(model, report)
    return report


def _summarize_plan(model, report: ShapeReport) -> None:
    """Validate the fusability assumptions by running the engine's real
    step translation (structure only, no buffers)."""
    try:
        from repro.nn.engine import _FallbackStep, _compile_steps
    except Exception:  # pragma: no cover - nn stack unavailable
        return
    try:
        steps, fused = _compile_steps(model)
    except Exception as exc:
        report.findings.append(
            ShapeFinding(
                index=-1,
                layer="<plan>",
                message=f"engine failed to compile the layer stack: {exc}",
            )
        )
        return
    report.fused_activations = int(fused)
    layer_index = {id(layer): i for i, layer in enumerate(model.layers)}
    for step in steps:
        if isinstance(step, _FallbackStep):
            report.fallback_layers.append(
                layer_index.get(id(step.layer), -1)
            )
        else:
            report.native_steps += 1


def validate_model(
    model,
    input_shape: Sequence[int],
    dtype: str = "float64",
    context: str = "publish",
) -> ShapeReport:
    """The gate form of :func:`check_model`: raise
    :class:`~repro.exceptions.AnalysisError` on any finding."""
    report = check_model(model, input_shape, dtype)
    if not report.ok:
        details = "; ".join(f.render() for f in report.findings)
        raise AnalysisError(
            f"shape check failed at {context} time for model "
            f"'{report.model}' with input {report.input.render()}: {details}"
        )
    return report


# ------------------------------------------------------------------- CLI


def model_corpus() -> List[Tuple[str, object, Tuple[int, ...]]]:
    """Every Sequential the repo's algorithm/app builders produce, with
    its canonical input shape — the sweep CI runs."""
    from repro.apps.connected_health import ActivityRecognizer
    from repro.eialgorithms.emirnn import EMIRNNClassifier
    from repro.eialgorithms.fastgrnn import FastGRNNClassifier
    from repro.eialgorithms.mobilenet import build_mobilenet
    from repro.eialgorithms.reference import (
        build_alexnet_lite,
        build_lenet,
        build_mlp,
        build_vgg_lite,
    )
    from repro.eialgorithms.squeezenet import build_squeezenet
    from repro.nn.layers.lstm import LSTMClassifier

    recognizer = ActivityRecognizer()
    emirnn = EMIRNNClassifier(input_size=6, num_classes=4)
    corpus: List[Tuple[str, object, Tuple[int, ...]]] = [
        ("mlp", build_mlp(16, 4), (16,)),
        ("lenet", build_lenet((16, 16, 1), 4), (16, 16, 1)),
        ("alexnet-lite", build_alexnet_lite((16, 16, 1), 4), (16, 16, 1)),
        ("vgg-lite", build_vgg_lite((16, 16, 1), 4), (16, 16, 1)),
        ("mobilenet", build_mobilenet((16, 16, 1), 4), (16, 16, 1)),
        ("squeezenet", build_squeezenet((16, 16, 1), 4), (16, 16, 1)),
        (
            "fastgrnn",
            FastGRNNClassifier(input_size=6, num_classes=4).model,
            (20, 6),
        ),
        ("emi-rnn", emirnn.model, (emirnn.window, 6)),
        ("lstm", LSTMClassifier(input_size=6, num_classes=4).model, (20, 6)),
        (
            "connected-health",
            recognizer.classifier.model,
            (recognizer.steps, recognizer.channels),
        ),
    ]
    return corpus


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.shapes",
        description="Static shape/dtype sweep over the repo's model corpus "
        "(the same checker ModelRegistry.publish runs as a gate).",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="human-readable table (default) or one JSON object",
    )
    args = parser.parse_args(argv)

    corpus = model_corpus()
    reports = [check_model(model, shape) for _, model, shape in corpus]
    payload = [
        {"name": name, **report.as_dict()}
        for (name, _, _), report in zip(corpus, reports)
    ]
    failed = any(not report.ok for report in reports)
    if args.format == "json":
        print(json.dumps({"models": payload, "ok": not failed}, indent=2))
    else:
        for entry, report in zip(payload, reports):
            status = "ok" if report.ok else "FAIL"
            out = report.output.render() if report.output else "?"
            print(
                f"{entry['name']:>18}: {status}  {report.input.render()} -> {out}  "
                f"native={report.native_steps} fused={report.fused_activations} "
                f"fallback={len(report.fallback_layers)}"
            )
            for finding in report.findings:
                print(f"                    {finding.render()}")
    if failed:
        print("shape check failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
