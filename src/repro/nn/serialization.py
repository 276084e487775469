"""Full-model serialization: one artifact carries the whole model.

OpenEI downloads models from the cloud simulator and uploads retrained
edge models back; both paths go through this module.  A full-model
artifact (:func:`serialize_model` / :func:`save_model`) round-trips the
*entire* model through a single ``.npz``: architecture (layer classes +
constructor configs), parameters, non-parameter layer state (BatchNorm
running statistics), the model name and its metadata (including
compression markers like ``bytes_per_param``).  This is the format the
versioned :class:`~repro.core.registry.ModelRegistry` stores and the
fleet rollout path transfers — no caller-side reconstruction, no way to
pair weights with the wrong architecture.

Layer classes participate through :meth:`~repro.nn.layers.base.Layer.get_config`
/ ``from_config`` / ``get_state`` / ``set_state``; custom layers register
with :func:`register_layer` so artifacts naming them can be loaded.
Unknown layer kinds raise :class:`~repro.exceptions.SerializationError`
instead of silently reconstructing a wrong architecture.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path
from typing import Dict, Optional, Type, Union

import numpy as np

from repro.exceptions import ReproError, SerializationError
from repro.nn.layers import (
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    GRUCellLayer,
    Layer,
    LeakyReLU,
    LSTMLayer,
    MaxPool2D,
    ReLU,
    SeparableConv2D,
    Sigmoid,
    SimpleRNN,
    Softmax,
    Tanh,
)
from repro.nn.model import Sequential

PathLike = Union[str, Path]

_MODEL_KEY = "__model_json__"
_STATE_PREFIX = "__state__:"
_PARAM_PREFIX = "param:"
_FORMAT = "repro-model/v1"

#: Layer classes loadable by name.  Core layers are registered here;
#: layers defined elsewhere (e.g. FastGRNNLayer) self-register on import
#: via :func:`register_layer`, and :func:`_layer_class` lazily imports
#: the known extension modules so loading never depends on import order.
_LAYER_REGISTRY: Dict[str, Type[Layer]] = {}

#: Modules that register extra layer classes when imported.
_EXTENSION_MODULES = ("repro.eialgorithms.fastgrnn",)


def register_layer(cls: Type[Layer]) -> Type[Layer]:
    """Make a layer class loadable from serialized artifacts (by class name)."""
    _LAYER_REGISTRY[cls.__name__] = cls
    return cls


for _cls in (
    AvgPool2D, BatchNorm, Conv2D, Dense, DepthwiseConv2D, Dropout, Flatten,
    GlobalAvgPool2D, GRUCellLayer, LeakyReLU, LSTMLayer, MaxPool2D, ReLU,
    SeparableConv2D, Sigmoid, SimpleRNN, Softmax, Tanh,
):
    register_layer(_cls)


def _layer_class(class_name: str) -> Type[Layer]:
    if class_name not in _LAYER_REGISTRY:
        # extension layers live outside repro.nn; import their modules
        # once so artifacts load regardless of what the caller imported
        import importlib

        for module in _EXTENSION_MODULES:
            try:
                importlib.import_module(module)
            except ImportError:  # pragma: no cover - optional extension
                continue
    try:
        return _LAYER_REGISTRY[class_name]
    except KeyError as exc:
        raise SerializationError(
            f"unknown layer kind {class_name!r}; known: {sorted(_LAYER_REGISTRY)}. "
            "Register custom layers with repro.nn.serialization.register_layer"
        ) from exc


# -- full-model artifacts ----------------------------------------------------------
def model_arrays(model: Sequential) -> Dict[str, np.ndarray]:
    """Every array a full-model artifact carries, in a canonical key order.

    Parameters are keyed ``param:<idx>:<name>`` and non-parameter layer
    state ``__state__:<idx>:<name>``; the registry uses this map (and its
    per-array digests) for delta-aware transfer costing.
    """
    arrays: Dict[str, np.ndarray] = {}
    for idx, layer in enumerate(model.layers):
        for key, value in layer.params.items():
            arrays[f"{_PARAM_PREFIX}{idx}:{key}"] = value
        for key, value in layer.get_state().items():
            arrays[f"{_STATE_PREFIX}{idx}:{key}"] = value
    return arrays


def _architecture(model: Sequential) -> Dict[str, object]:
    layers = []
    for layer in model.layers:
        name = layer.__class__.__name__
        if name not in _LAYER_REGISTRY:
            raise SerializationError(
                f"cannot serialize unknown layer kind {name!r}; register it "
                "with repro.nn.serialization.register_layer first"
            )
        layers.append({"class": name, "config": _jsonable(layer.get_config())})
    return {
        "format": _FORMAT,
        "name": model.name,
        "metadata": _jsonable(model.metadata),
        "layers": layers,
    }


def _header_json(model: Sequential) -> str:
    try:
        return json.dumps(_architecture(model), sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            f"model metadata or layer config is not JSON-serializable: {exc}"
        ) from exc


def serialize_model(model: Sequential) -> bytes:
    """Serialize architecture + weights + state + metadata into ``.npz`` bytes."""
    header = _header_json(model)
    arrays = dict(model_arrays(model))
    arrays[_MODEL_KEY] = np.frombuffer(header.encode("utf-8"), dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def deserialize_model(data: bytes) -> Sequential:
    """Rebuild the full model from :func:`serialize_model` bytes."""
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except (OSError, ValueError) as exc:
        raise SerializationError(f"not a model artifact: {exc}") from exc
    if _MODEL_KEY not in arrays:
        raise SerializationError(
            "archive has no architecture header; it is not a full-model artifact "
            "written by serialize_model / save_model"
        )
    try:
        header = json.loads(bytes(arrays.pop(_MODEL_KEY)).decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise SerializationError(f"corrupt architecture header: {exc}") from exc
    if not isinstance(header, dict):
        raise SerializationError("corrupt architecture header: not a JSON object")
    if header.get("format") != _FORMAT:
        raise SerializationError(
            f"unsupported model artifact format {header.get('format')!r}"
        )
    if not isinstance(header.get("layers"), list) or "name" not in header:
        raise SerializationError(
            "corrupt architecture header: missing 'layers' or 'name'"
        )
    layers = []
    for spec in header["layers"]:
        if not isinstance(spec, dict) or "class" not in spec or "config" not in spec:
            raise SerializationError(f"corrupt layer spec in artifact header: {spec!r}")
        cls = _layer_class(spec["class"])
        config = dict(spec["config"])
        try:
            layers.append(cls.from_config(config))
        except (TypeError, ReproError) as exc:
            raise SerializationError(
                f"cannot rebuild layer {spec['class']} from config {config}: {exc}"
            ) from exc
    model = Sequential(layers, name=header["name"])
    model.metadata.update(header.get("metadata", {}))
    # completeness first: a truncated artifact must not silently leave any
    # parameter at its random initialization
    missing = [key for key in model_arrays(model) if key not in arrays]
    if missing:
        raise SerializationError(
            f"artifact is missing {len(missing)} array(s) the serialized "
            f"architecture requires (e.g. {missing[:3]})"
        )
    states: Dict[int, Dict[str, np.ndarray]] = {}
    try:
        for key, value in arrays.items():
            if key.startswith(_PARAM_PREFIX):
                idx_str, _, param = key[len(_PARAM_PREFIX):].partition(":")
                _set_param(model.layers[int(idx_str)], param, value)
            elif key.startswith(_STATE_PREFIX):
                idx_str, _, state_key = key[len(_STATE_PREFIX):].partition(":")
                states.setdefault(int(idx_str), {})[state_key] = value
            else:
                raise SerializationError(f"unexpected array {key!r} in model artifact")
        for idx, state in states.items():
            model.layers[idx].set_state(state)
    except (KeyError, IndexError, ValueError, ReproError) as exc:
        if isinstance(exc, SerializationError):
            raise
        raise SerializationError(
            f"arrays in the artifact do not match the serialized architecture: {exc}"
        ) from exc
    return model


def save_model(model: Sequential, path: PathLike) -> Path:
    """Persist a full-model artifact (see :func:`serialize_model`) to disk."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(serialize_model(model))
    return path


def load_model(path: PathLike) -> Sequential:
    """Load a full-model artifact written by :func:`save_model`."""
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"model artifact not found: {path}")
    return deserialize_model(path.read_bytes())


def array_digest(value: np.ndarray) -> str:
    """Content hash of one array (dtype + shape + raw bytes)."""
    digest = hashlib.sha256()
    value = np.ascontiguousarray(value)
    digest.update(str(value.dtype).encode("utf-8"))
    digest.update(str(value.shape).encode("utf-8"))
    digest.update(value.tobytes())
    return digest.hexdigest()


def model_fingerprint(model: Sequential, array_digests: Optional[Dict[str, str]] = None) -> str:
    """Deterministic content address of a model.

    Hashes the canonical architecture header plus every parameter/state
    array, so two models with identical architecture, weights, state and
    metadata share a fingerprint — regardless of when or where they were
    serialized (``.npz`` bytes themselves embed zip timestamps, so the
    fingerprint is computed from content, not container bytes).

    A caller that already computed :func:`array_digest` per array (the
    registry does, for delta costing) passes them via ``array_digests``
    so the arrays are not hashed a second time.
    """
    if array_digests is None:
        array_digests = {
            key: array_digest(value) for key, value in model_arrays(model).items()
        }
    digest = hashlib.sha256()
    digest.update(_header_json(model).encode("utf-8"))
    for key in sorted(array_digests):
        digest.update(key.encode("utf-8"))
        digest.update(array_digests[key].encode("utf-8"))
    return digest.hexdigest()


def _set_param(layer: Layer, key: str, value: np.ndarray) -> None:
    setter = getattr(layer, "set_param", None)
    if setter is None:
        raise SerializationError(
            f"artifact carries parameter {key!r} for parameterless layer {layer.name!r}"
        )
    setter(key, value)


def _jsonable(metadata: Dict[str, object]) -> Dict[str, object]:
    """Convert NumPy scalar metadata values to plain Python types."""
    converted: Dict[str, object] = {}
    for key, value in metadata.items():
        if isinstance(value, (np.integer, np.floating)):
            converted[key] = value.item()
        elif isinstance(value, np.bool_):
            converted[key] = bool(value)
        else:
            converted[key] = value
    return converted
