"""Compiled inference engine: fused, buffer-reusing forward plans.

The naive :meth:`repro.nn.model.Sequential.forward` walks the layer list
one ``forward`` call at a time, paying on every request for work that
never changes between requests: ``training``-branch checks, fresh im2col
workspaces, fresh intermediate activations, and per-timestep Python list
bookkeeping in the recurrent cells.  That is exactly the overhead the
paper's Section IV.B attributes to heavyweight packages — the edge
packages it benchmarks (QNNPACK and friends) win by running *fused,
allocation-free* kernels.

:class:`InferencePlan` is this repository's version of that idea.  It
compiles a ``Sequential`` once into a list of executable steps:

* **Fusion** — a Dense/Conv GEMM feeding an elementwise activation
  (ReLU, LeakyReLU, Sigmoid, Tanh, Softmax) becomes a single step that
  applies the activation in place on the GEMM's output buffer, so the
  chain runs as one pass with no intermediate tensor and no
  ``training``-branch overhead.
* **Workspace arena** — every intermediate buffer (im2col columns,
  padded inputs, activations, recurrent gate scratch) is allocated once
  per ``(step, role, shape)`` and reused across calls via
  ``np.matmul(..., out=)``-style in-place operations.
* **Recurrent vectorization** — the per-timestep input projections
  ``x_t @ Wx`` of SimpleRNN / GRU / LSTM / FastGRNN collapse into one
  ``(batch * steps, features) @ Wx`` GEMM up front; the timestep loop
  then runs only the hidden-state GEMM per gate, writing into reused
  buffers.

Plans capture *structure*, never parameter values: every step reads the
layer's live parameter arrays at execution time, so compression passes
that mutate weights in place (pruning, binarization, k-means and int8
quantization all assign through ``weights[...]``) are picked up without
recompilation.  Replacing a parameter array object (``set_param``) or the
layer list itself changes the plan's structural fingerprint, which
:meth:`Sequential.predict` checks on every call and recompiles on
mismatch.

Layers the compiler does not know natively fall back to their ordinary
``forward(training=False)``, so a plan exists for *every* model and is
exactly as correct as the naive path — merely faster where it matters.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers.activations import LeakyReLU, ReLU, Sigmoid, Softmax, Tanh
from repro.nn.layers.base import Layer
from repro.nn.layers.conv import Conv2D, DepthwiseConv2D, SeparableConv2D, _conv_output_size
from repro.nn.layers.dense import Dense
from repro.nn.layers.lstm import LSTMLayer
from repro.nn.layers.normalization import BatchNorm
from repro.nn.layers.pooling import AvgPool2D, GlobalAvgPool2D, MaxPool2D
from repro.nn.layers.recurrent import GRUCellLayer, SimpleRNN
from repro.nn.layers.reshaping import Dropout, Flatten


class WorkspaceArena:
    """Shape-keyed buffer pool shared by every step of one plan.

    Buffers are keyed ``(thread, step_index, role, shape)`` so the first
    call at a given input shape allocates and every subsequent call
    reuses.  The thread component keeps concurrent executions of one
    plan from scribbling over each other's scratch space without any
    locking around the forward pass itself — each serving thread gets
    its own buffer set, so the arena is bounded by (threads actively
    serving) x (distinct shapes served).

    A libei handler thread lives as long as its keep-alive connection
    (``ThreadingHTTPServer`` spawns one thread per connection, and
    ``LibEIClient`` reuses connections), so a caller's requests keep
    landing on one thread and reuse its buffer set.  Buffer sets of
    threads that have exited — closed connections — are pruned whenever
    a new thread first touches the arena, so the arena does not
    accumulate workspaces for every thread ever seen.
    """

    def __init__(self) -> None:
        # outer dict: thread ident -> that thread's private buffer set;
        # the inner dict is only ever touched by its owning thread
        self._buffers: Dict[int, Dict[Tuple, np.ndarray]] = {}  # guarded-by: _register_lock
        self._register_lock = threading.Lock()

    def _local_buffers(self) -> Dict[Tuple, np.ndarray]:
        ident = threading.get_ident()
        local = self._buffers.get(ident)
        if local is None:
            with self._register_lock:
                # evict workspaces owned by threads that no longer exist
                alive = {t.ident for t in threading.enumerate()}
                for stale in [i for i in self._buffers if i not in alive]:
                    del self._buffers[stale]
                local = self._buffers.setdefault(ident, {})
        return local

    def get(self, step: int, role: str, shape: Tuple[int, ...]) -> np.ndarray:
        """The calling thread's reusable float64 buffer for one (step, role, shape) slot."""
        local = self._local_buffers()
        key = (step, role, shape)
        buffer = local.get(key)
        if buffer is None:
            buffer = local[key] = np.empty(shape, dtype=np.float64)
        return buffer

    def clear(self) -> None:
        """Drop every buffer (e.g. after serving an unusually large batch)."""
        with self._register_lock:
            self._buffers.clear()

    @property
    def buffer_count(self) -> int:
        return sum(len(local) for local in self._buffers.values())

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        return sum(b.nbytes for local in self._buffers.values() for b in local.values())


# ---------------------------------------------------------------------------
# In-place elementwise activations (applied on arena-owned buffers).
# ---------------------------------------------------------------------------

def _relu_inplace(x: np.ndarray, arena: WorkspaceArena, step: int) -> None:
    np.maximum(x, 0.0, out=x)


def _tanh_inplace(x: np.ndarray, arena: WorkspaceArena, step: int) -> None:
    np.tanh(x, out=x)


def _sigmoid_inplace(x: np.ndarray, arena: WorkspaceArena, step: int) -> None:
    # sigmoid(x) == 0.5 * (1 + tanh(x / 2)): one transcendental, no
    # temporaries, and tanh saturates so no clipping is needed; agrees
    # with the layers' clipped 1 / (1 + exp(-x)) to ~1e-16
    x *= 0.5
    np.tanh(x, out=x)
    x *= 0.5
    x += 0.5


def _softmax_inplace(x: np.ndarray, arena: WorkspaceArena, step: int) -> None:
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)


def _make_leaky_inplace(alpha: float) -> Callable[[np.ndarray, WorkspaceArena, int], None]:
    def _leaky_inplace(x: np.ndarray, arena: WorkspaceArena, step: int) -> None:
        scaled = arena.get(step, "leaky", x.shape)
        np.multiply(x, alpha, out=scaled)
        np.maximum(x, scaled, out=x)

    return _leaky_inplace


def _activation_kernel(layer: Layer) -> Optional[Callable[[np.ndarray, WorkspaceArena, int], None]]:
    """The in-place kernel for an activation layer, or None if unknown."""
    if type(layer) is ReLU:
        return _relu_inplace
    if type(layer) is Tanh:
        return _tanh_inplace
    if type(layer) is Sigmoid:
        return _sigmoid_inplace
    if type(layer) is Softmax:
        return _softmax_inplace
    if type(layer) is LeakyReLU and 0.0 <= layer.alpha <= 1.0:
        return _make_leaky_inplace(layer.alpha)
    return None


def _im2col_into(
    inputs: np.ndarray,
    kernel: int,
    stride: int,
    pad: int,
    arena: WorkspaceArena,
    step: int,
) -> Tuple[np.ndarray, int, int]:
    """Arena-backed :func:`repro.nn.layers.conv.im2col`: no fresh allocations."""
    batch, height, width, channels = inputs.shape
    out_h = _conv_output_size(height, kernel, stride, pad)
    out_w = _conv_output_size(width, kernel, stride, pad)
    if pad:
        padded = arena.get(step, "pad", (batch, height + 2 * pad, width + 2 * pad, channels))
        padded.fill(0.0)
        padded[:, pad:-pad, pad:-pad, :] = inputs
    else:
        padded = inputs
    cols = arena.get(step, "cols", (batch, out_h, out_w, kernel, kernel, channels))
    for i in range(kernel):
        i_end = i + stride * out_h
        for j in range(kernel):
            j_end = j + stride * out_w
            cols[:, :, :, i, j, :] = padded[:, i:i_end:stride, j:j_end:stride, :]
    return cols.reshape(batch * out_h * out_w, kernel * kernel * channels), out_h, out_w


# ---------------------------------------------------------------------------
# Plan steps.  Each step consumes ``(x, owned)`` and produces the same pair;
# ``owned`` marks arrays the plan may mutate in place (arena buffers), as
# opposed to the caller's input or a view of it.
# ---------------------------------------------------------------------------

class _Step:
    """One executable unit of a compiled plan."""

    #: short human-readable label used by :meth:`InferencePlan.describe`.
    label = "step"

    def __init__(self, layer: Layer, step: int) -> None:
        self.layer = layer
        self.step = step
        self.activation: Optional[Callable[[np.ndarray, WorkspaceArena, int], None]] = None
        self.activation_name: Optional[str] = None

    def fuse_activation(self, layer: Layer) -> bool:
        """Try to absorb a following elementwise activation into this step."""
        kernel = _activation_kernel(layer)
        if kernel is None:
            return False
        self.activation = kernel
        self.activation_name = type(layer).__name__
        return True

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        raise NotImplementedError

    def describe(self) -> str:
        base = f"{self.label}:{self.layer.name}"
        if self.activation_name is not None:
            base += f"+{self.activation_name}"
        return base


class _FallbackStep(_Step):
    """Unknown layer: delegate to its ordinary inference forward."""

    label = "fallback"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        out = self.layer.forward(x, training=False)
        if out is x or np.may_share_memory(out, x):
            # the layer returned its input (or a view of it): a later
            # in-place step may only mutate it if the input was already
            # plan-owned, never when it aliases the caller's array
            return out, owned
        return out, True


class _DenseStep(_Step):
    label = "dense"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        layer = self.layer
        if x.ndim != 2:
            raise ShapeError(f"Dense expects 2-D input (including batch); got shape {x.shape}")
        if x.shape[1] != layer.in_features:
            raise ConfigurationError(
                f"Dense {layer.name!r} expects {layer.in_features} features, got {x.shape[1]}"
            )
        params = layer.params
        weight = params["W"]
        out = arena.get(self.step, "out", (x.shape[0], weight.shape[1]))
        np.matmul(x, weight, out=out)
        if layer.use_bias:
            out += params["b"]
        if self.activation is not None:
            self.activation(out, arena, self.step)
        return out, True


class _Conv2DStep(_Step):
    label = "conv"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        layer = self.layer
        if x.ndim != 4:
            raise ShapeError(f"Conv2D expects 4-D input (including batch); got shape {x.shape}")
        if x.shape[3] != layer.in_channels:
            raise ConfigurationError(
                f"Conv2D {layer.name!r} expects {layer.in_channels} channels, got {x.shape[3]}"
            )
        params = layer.params
        cols, out_h, out_w = _im2col_into(
            x, layer.kernel_size, layer.stride, layer.pad, arena, self.step
        )
        w_mat = params["W"].reshape(-1, layer.out_channels)
        flat = arena.get(self.step, "out", (cols.shape[0], layer.out_channels))
        np.matmul(cols, w_mat, out=flat)
        if layer.use_bias:
            flat += params["b"]
        if self.activation is not None:
            self.activation(flat, arena, self.step)
        return flat.reshape(x.shape[0], out_h, out_w, layer.out_channels), True


class _DepthwiseConv2DStep(_Step):
    label = "dwconv"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        layer = self.layer
        if x.ndim != 4:
            raise ShapeError(
                f"DepthwiseConv2D expects 4-D input (including batch); got shape {x.shape}"
            )
        if x.shape[3] != layer.in_channels:
            raise ConfigurationError(
                f"DepthwiseConv2D {layer.name!r} expects {layer.in_channels} channels, "
                f"got {x.shape[3]}"
            )
        params = layer.params
        k2 = layer.kernel_size * layer.kernel_size
        cols, out_h, out_w = _im2col_into(
            x, layer.kernel_size, layer.stride, layer.pad, arena, self.step
        )
        cols3 = cols.reshape(-1, k2, layer.in_channels)
        w3 = params["W"].reshape(k2, layer.in_channels)
        out = arena.get(self.step, "out", (cols3.shape[0], layer.in_channels))
        np.einsum("pkc,kc->pc", cols3, w3, out=out)
        if layer.use_bias:
            out += params["b"]
        if self.activation is not None:
            self.activation(out, arena, self.step)
        return out.reshape(x.shape[0], out_h, out_w, layer.in_channels), True


class _BatchNormStep(_Step):
    """Inference batch norm as one scale-and-shift pass.

    The per-channel scale/shift are derived from the layer's *current*
    gamma/beta and running statistics on every call (a few hundred flops),
    so in-place parameter edits and post-compilation training are always
    reflected without recompiling.
    """

    label = "batchnorm"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        layer = self.layer
        if x.shape[-1] != layer.num_features:
            raise ConfigurationError(
                f"BatchNorm {layer.name!r} expects {layer.num_features} features, "
                f"got {x.shape[-1]}"
            )
        params = layer.params
        scale = params["gamma"] / np.sqrt(layer.running_var + layer.epsilon)
        shift = params["beta"] - layer.running_mean * scale
        if not owned:
            buffer = arena.get(self.step, "out", x.shape)
            np.multiply(x, scale, out=buffer)
            x = buffer
        else:
            x *= scale
        x += shift
        if self.activation is not None:
            self.activation(x, arena, self.step)
        return x, True


class _ActivationStep(_Step):
    """A standalone elementwise activation (nothing upstream to fuse into)."""

    label = "activation"

    def __init__(self, layer: Layer, step: int,
                 kernel: Callable[[np.ndarray, WorkspaceArena, int], None]) -> None:
        super().__init__(layer, step)
        self._kernel = kernel

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        if not owned:
            buffer = arena.get(self.step, "out", x.shape)
            buffer[...] = x
            x = buffer
        self._kernel(x, arena, self.step)
        return x, True


class _MaxPoolStep(_Step):
    label = "maxpool"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        layer = self.layer
        if x.ndim != 4:
            raise ShapeError(f"MaxPool2D expects 4-D input (including batch); got shape {x.shape}")
        batch, height, width, channels = x.shape
        p = layer.pool_size
        if height % p or width % p:
            raise ShapeError(
                f"MaxPool2D requires spatial dims divisible by {p}; got {(height, width)}"
            )
        windows = x.reshape(batch, height // p, p, width // p, p, channels)
        out = arena.get(self.step, "out", (batch, height // p, width // p, channels))
        windows.max(axis=(2, 4), out=out)
        if self.activation is not None:
            self.activation(out, arena, self.step)
        return out, True


class _AvgPoolStep(_Step):
    label = "avgpool"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        layer = self.layer
        if x.ndim != 4:
            raise ShapeError(f"AvgPool2D expects 4-D input (including batch); got shape {x.shape}")
        batch, height, width, channels = x.shape
        p = layer.pool_size
        if height % p or width % p:
            raise ShapeError(
                f"AvgPool2D requires spatial dims divisible by {p}; got {(height, width)}"
            )
        windows = x.reshape(batch, height // p, p, width // p, p, channels)
        out = arena.get(self.step, "out", (batch, height // p, width // p, channels))
        windows.mean(axis=(2, 4), out=out)
        if self.activation is not None:
            self.activation(out, arena, self.step)
        return out, True


class _GlobalAvgPoolStep(_Step):
    label = "gap"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        if x.ndim != 4:
            raise ShapeError(
                f"GlobalAvgPool2D expects 4-D input (including batch); got shape {x.shape}"
            )
        out = arena.get(self.step, "out", (x.shape[0], x.shape[3]))
        x.mean(axis=(1, 2), out=out)
        if self.activation is not None:
            self.activation(out, arena, self.step)
        return out, True


class _FlattenStep(_Step):
    label = "flatten"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        flat = x.reshape(x.shape[0], -1)
        # reshape yields a view of a contiguous buffer (ownership carries
        # over) or a fresh copy (which the plan then owns outright)
        return flat, owned or flat.base is None


class _IdentityStep(_Step):
    """Inference-mode no-op (Dropout)."""

    label = "identity"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        return x, owned


def _time_major(x: np.ndarray, arena: WorkspaceArena, step: int) -> np.ndarray:
    """Copy ``(batch, steps, features)`` into a reused (steps, batch, features) buffer.

    Time-major layout makes each per-timestep slice of the projected
    sequence contiguous, so the recurrent loops add whole-step views
    without strided access.
    """
    batch, steps, features = x.shape
    buffer = arena.get(step, "tm", (steps, batch, features))
    np.copyto(buffer, x.transpose(1, 0, 2))
    return buffer


def _projected(
    x_tm: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    arena: WorkspaceArena,
    step: int,
    role: str,
) -> np.ndarray:
    """One ``(steps * batch, features) @ W`` GEMM for a whole sequence.

    ``x_tm`` is the time-major copy from :func:`_time_major`; the result
    is ``(steps, batch, hidden)`` so the recurrent loops index a
    contiguous per-timestep block instead of paying one GEMM per step.
    """
    steps, batch, features = x_tm.shape
    flat = x_tm.reshape(steps * batch, features)
    out = arena.get(step, role, (steps * batch, weight.shape[1]))
    np.matmul(flat, weight, out=out)
    if bias is not None:
        out += bias
    return out.reshape(steps, batch, weight.shape[1])


class _SimpleRNNStep(_Step):
    label = "rnn"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        layer = self.layer
        if x.ndim != 3:
            raise ShapeError(f"SimpleRNN expects 3-D input (including batch); got shape {x.shape}")
        params = layer.params
        batch, steps, _ = x.shape
        x_tm = _time_major(x, arena, self.step)
        xp = _projected(x_tm, params["Wx"], params["b"], arena, self.step, "xp")
        hidden = arena.get(self.step, "h", (batch, layer.hidden_size))
        hidden.fill(0.0)
        pre = arena.get(self.step, "pre", (batch, layer.hidden_size))
        w_h = params["Wh"]
        for t in range(steps):
            np.matmul(hidden, w_h, out=pre)
            pre += xp[t]
            np.tanh(pre, out=hidden)
        if self.activation is not None:
            self.activation(hidden, arena, self.step)
        return hidden, True


class _GRUStep(_Step):
    label = "gru"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        layer = self.layer
        if x.ndim != 3:
            raise ShapeError(
                f"GRUCellLayer expects 3-D input (including batch); got shape {x.shape}"
            )
        params = layer.params
        batch, steps, _ = x.shape
        shape = (batch, layer.hidden_size)
        x_tm = _time_major(x, arena, self.step)
        xp = {
            gate: _projected(
                x_tm, params[f"Wx_{gate}"], params[f"b_{gate}"], arena, self.step, f"xp_{gate}"
            )
            for gate in ("z", "r", "h")
        }
        hidden = arena.get(self.step, "h", shape)
        hidden.fill(0.0)
        z = arena.get(self.step, "z", shape)
        r = arena.get(self.step, "r", shape)
        h_tilde = arena.get(self.step, "ht", shape)
        gated = arena.get(self.step, "gated", shape)
        wh_z, wh_r, wh_h = params["Wh_z"], params["Wh_r"], params["Wh_h"]
        xp_z, xp_r, xp_h = xp["z"], xp["r"], xp["h"]
        for t in range(steps):
            np.matmul(hidden, wh_z, out=z)
            z += xp_z[t]
            _sigmoid_inplace(z, arena, self.step)
            np.matmul(hidden, wh_r, out=r)
            r += xp_r[t]
            _sigmoid_inplace(r, arena, self.step)
            np.multiply(r, hidden, out=gated)
            np.matmul(gated, wh_h, out=h_tilde)
            h_tilde += xp_h[t]
            np.tanh(h_tilde, out=h_tilde)
            # h = (1 - z) * h + z * h_tilde, reusing the gate buffers
            np.multiply(z, h_tilde, out=gated)
            np.subtract(1.0, z, out=z)
            hidden *= z
            hidden += gated
        if self.activation is not None:
            self.activation(hidden, arena, self.step)
        return hidden, True


class _LSTMStep(_Step):
    label = "lstm"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        layer = self.layer
        if x.ndim != 3:
            raise ShapeError(
                f"LSTMLayer expects 3-D input (including batch); got shape {x.shape}"
            )
        params = layer.params
        batch, steps, _ = x.shape
        shape = (batch, layer.hidden_size)
        x_tm = _time_major(x, arena, self.step)
        xp = {
            gate: _projected(
                x_tm, params[f"Wx_{gate}"], params[f"b_{gate}"], arena, self.step, f"xp_{gate}"
            )
            for gate in layer.GATES
        }
        hidden = arena.get(self.step, "h", shape)
        hidden.fill(0.0)
        cell = arena.get(self.step, "c", shape)
        cell.fill(0.0)
        gates = {gate: arena.get(self.step, gate, shape) for gate in layer.GATES}
        scratch = arena.get(self.step, "scratch", shape)
        plan_gates = [(gates[g], params[f"Wh_{g}"], xp[g], g == "g") for g in layer.GATES]
        for t in range(steps):
            for buffer, w_h, xp_g, is_candidate in plan_gates:
                np.matmul(hidden, w_h, out=buffer)
                buffer += xp_g[t]
                if is_candidate:
                    np.tanh(buffer, out=buffer)
                else:
                    _sigmoid_inplace(buffer, arena, self.step)
            # c = f * c + i * g ; h = o * tanh(c)
            cell *= gates["f"]
            np.multiply(gates["i"], gates["g"], out=scratch)
            cell += scratch
            np.tanh(cell, out=scratch)
            np.multiply(gates["o"], scratch, out=hidden)
        if self.activation is not None:
            self.activation(hidden, arena, self.step)
        return hidden, True


class _FastGRNNStep(_Step):
    label = "fastgrnn"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        layer = self.layer
        if x.ndim != 3:
            raise ShapeError(
                f"FastGRNNLayer expects 3-D input (including batch); got shape {x.shape}"
            )
        params = layer.params
        batch, steps, _ = x.shape
        shape = (batch, layer.hidden_size)
        zeta = params["zeta"][0]
        nu = params["nu"][0]
        x_tm = _time_major(x, arena, self.step)
        # both gates share the x @ W projection; pre-adding each bias over
        # the whole sequence leaves only the recurrent GEMM in the loop
        xp_z = _projected(x_tm, params["W"], params["b_z"], arena, self.step, "xp_z")
        xp_h = arena.get(self.step, "xp_h", xp_z.shape)
        np.subtract(xp_z, params["b_z"], out=xp_h)
        xp_h += params["b_h"]
        hidden = arena.get(self.step, "h", shape)
        hidden.fill(0.0)
        pre = arena.get(self.step, "pre", shape)
        z = arena.get(self.step, "z", shape)
        h_tilde = arena.get(self.step, "ht", shape)
        u = params["U"]
        scale_shift = zeta + nu
        for t in range(steps):
            np.matmul(hidden, u, out=pre)
            np.add(pre, xp_z[t], out=z)
            _sigmoid_inplace(z, arena, self.step)
            np.add(pre, xp_h[t], out=h_tilde)
            np.tanh(h_tilde, out=h_tilde)
            # h = (zeta * (1 - z) + nu) * h_tilde + z * h, with the gate
            # scale rewritten as (zeta + nu) - zeta * z to save a pass
            hidden *= z
            z *= -zeta
            z += scale_shift
            z *= h_tilde
            hidden += z
        if self.activation is not None:
            self.activation(hidden, arena, self.step)
        return hidden, True


def _fastgrnn_layer_cls():
    """Lazy import: eialgorithms imports repro.nn, so avoid a module cycle."""
    from repro.eialgorithms.fastgrnn import FastGRNNLayer

    return FastGRNNLayer


# ---------------------------------------------------------------------------
# Compilation.
# ---------------------------------------------------------------------------

def model_fingerprint(model) -> Tuple:
    """Structural identity of a model: layer objects and parameter arrays.

    In-place weight mutation (``weights[...] = ...``, the idiom of every
    compression pass) keeps array identities stable, so the fingerprint —
    and the compiled plan — survive it; replacing a layer, a parameter
    array (``set_param``) or batch-norm running statistics changes the
    fingerprint and forces recompilation.
    """
    parts = []
    for layer in model.layers:
        param_ids = tuple((key, id(value)) for key, value in sorted(layer.params.items()))
        extra = ()
        if isinstance(layer, BatchNorm):
            extra = (id(layer.running_mean), id(layer.running_var))
        parts.append((id(layer), param_ids, extra))
    return tuple(parts)


def _compile_steps(model) -> Tuple[List[_Step], int]:
    """Translate the layer list into plan steps, fusing trailing activations."""
    fastgrnn_cls = _fastgrnn_layer_cls()
    steps: List[_Step] = []
    fused = 0
    index = 0
    layers = list(model.layers)
    position = 0
    while position < len(layers):
        layer = layers[position]
        step: _Step
        if type(layer) is Dense:
            step = _DenseStep(layer, index)
        elif type(layer) is Conv2D:
            step = _Conv2DStep(layer, index)
        elif type(layer) is DepthwiseConv2D:
            step = _DepthwiseConv2DStep(layer, index)
        elif type(layer) is SeparableConv2D:
            # two native sub-steps; the trailing activation fuses into the
            # pointwise GEMM below
            steps.append(_DepthwiseConv2DStep(layer.depthwise, index))
            index += 1
            step = _Conv2DStep(layer.pointwise, index)
        elif type(layer) is BatchNorm:
            step = _BatchNormStep(layer, index)
        elif type(layer) is MaxPool2D:
            step = _MaxPoolStep(layer, index)
        elif type(layer) is AvgPool2D:
            step = _AvgPoolStep(layer, index)
        elif type(layer) is GlobalAvgPool2D:
            step = _GlobalAvgPoolStep(layer, index)
        elif type(layer) is Flatten:
            step = _FlattenStep(layer, index)
        elif type(layer) is Dropout:
            step = _IdentityStep(layer, index)
        elif type(layer) is SimpleRNN:
            step = _SimpleRNNStep(layer, index)
        elif type(layer) is GRUCellLayer:
            step = _GRUStep(layer, index)
        elif type(layer) is LSTMLayer:
            step = _LSTMStep(layer, index)
        elif type(layer) is fastgrnn_cls:
            step = _FastGRNNStep(layer, index)
        else:
            kernel = _activation_kernel(layer)
            if kernel is not None:
                step = _ActivationStep(layer, index, kernel)
            else:
                step = _FallbackStep(layer, index)
        # absorb a following elementwise activation into GEMM-like steps
        if not isinstance(step, (_FallbackStep, _IdentityStep, _FlattenStep, _ActivationStep)):
            while position + 1 < len(layers) and step.activation is None:
                if step.fuse_activation(layers[position + 1]):
                    position += 1
                    fused += 1
                else:
                    break
        steps.append(step)
        index += 1
        position += 1
    return steps, fused


class InferencePlan:
    """A compiled, fused, workspace-reusing forward pass for one model.

    Instances are cheap to build (structure only — no parameter values
    are copied) and are cached by :class:`~repro.nn.model.Sequential`.
    Concurrent execution is safe without serializing the forward pass:
    the workspace arena hands each thread its own buffer set, so GEMMs
    from different serving threads still overlap (numpy releases the
    GIL) exactly as the naive path did.
    """

    def __init__(self, model) -> None:
        self.model = model
        self.arena = WorkspaceArena()
        self.fingerprint = model_fingerprint(model)
        self._steps, self.fused_count = _compile_steps(model)
        self._calls_lock = threading.Lock()
        self.calls = 0  # guarded-by: _calls_lock

    # -- validity ----------------------------------------------------------
    def matches(self, model) -> bool:
        """True when the plan still describes ``model``'s current structure."""
        return model is self.model and model_fingerprint(model) == self.fingerprint

    # -- execution ---------------------------------------------------------
    def execute(self, inputs: np.ndarray) -> np.ndarray:
        """Run the fused forward pass; output parity with naive ``forward``.

        The result is always safe for the caller to keep: when the last
        step lands in an arena buffer the plan hands back a copy, never
        the buffer itself.
        """
        inputs = np.asarray(inputs)
        with self._calls_lock:
            self.calls += 1
        x: np.ndarray = inputs
        owned = False
        for step in self._steps:
            x, owned = step.run(x, owned, self.arena)
        return x.copy() if owned else x

    def predict_batch(self, inputs: np.ndarray) -> np.ndarray:
        """One fused forward over a whole (micro-)batch — alias of execute.

        The serving layer stacks a micro-batch of requests into a single
        array and calls this once instead of looping per request.
        """
        return self.execute(inputs)

    __call__ = execute

    # -- introspection -----------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """Plan summary: steps, fusions, workspace footprint, call count."""
        return {
            "model": self.model.name,
            "steps": [step.describe() for step in self._steps],
            "fused_activations": self.fused_count,
            "workspace_buffers": self.arena.buffer_count,
            "workspace_bytes": self.arena.nbytes,
            "calls": self.calls,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<InferencePlan model={self.model.name!r} steps={len(self._steps)} "
            f"fused={self.fused_count}>"
        )
