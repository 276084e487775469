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

Which step a layer kind compiles to is declared on the step itself:
``@plan_step(Dense)`` files the step class under the *exact* layer class
(a subclass is a different kind).  A layer that lives outside
:mod:`repro.nn` files its own — ``eialgorithms/fastgrnn.py`` does so on
import — so this module imports no layer it does not own.  Layers with no
entry fall back to their ordinary ``forward(training=False)``, so a plan
exists for *every* model and is exactly as correct as the naive path —
merely faster where it matters.

What a kind accepts is declared once too, in ``Layer.output_shape``: a
native step opens with ``self.layer.output_shape(x.shape[1:])`` on the
array it actually receives and so raises the same named error as the
layer's own ``forward``.  Fallback, flatten, identity and standalone
activation steps check nothing (a fallback layer's ``forward`` speaks for
itself; the others accept any shape).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.nn.layers.activations import LeakyReLU, ReLU, Sigmoid, Softmax, Tanh
from repro.nn.layers.base import Layer
from repro.nn.layers.conv import Conv2D, DepthwiseConv2D, SeparableConv2D
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
    (``LibEIServer`` spawns one thread per connection, and
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


_ACTIVATION_KERNELS: Dict[type, Callable[[np.ndarray, WorkspaceArena, int], None]] = {
    ReLU: _relu_inplace,
    Tanh: _tanh_inplace,
    Sigmoid: _sigmoid_inplace,
    Softmax: _softmax_inplace,
}


def _activation_kernel(layer: Layer) -> Optional[Callable[[np.ndarray, WorkspaceArena, int], None]]:
    """The in-place kernel for an activation layer, or None if unknown."""
    if type(layer) is LeakyReLU and 0.0 <= layer.alpha <= 1.0:
        return _make_leaky_inplace(layer.alpha)
    return _ACTIVATION_KERNELS.get(type(layer))


def _im2col_into(
    inputs: np.ndarray,
    layer: Layer,
    out_h: int,
    out_w: int,
    arena: WorkspaceArena,
    step: int,
) -> np.ndarray:
    """Arena-backed :func:`repro.nn.layers.conv.im2col`: no fresh allocations.

    ``out_h`` / ``out_w`` are what the conv layer's ``output_shape``
    declared for ``inputs``.
    """
    batch, height, width, channels = inputs.shape
    kernel, stride, pad = layer.kernel_size, layer.stride, layer.pad
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
    return cols.reshape(batch * out_h * out_w, kernel * kernel * channels)


# ---------------------------------------------------------------------------
# Plan steps.  Each step consumes ``(x, owned)`` and produces the same pair;
# ``owned`` marks arrays the plan may mutate in place (arena buffers), as
# opposed to the caller's input or a view of it.  A native step opens with
# ``self.layer.output_shape(x.shape[1:])``: the layer's own input contract,
# checked against the array this step actually receives.
# ---------------------------------------------------------------------------

class _Step:
    """One executable unit of a compiled plan."""

    #: short human-readable label used by :meth:`InferencePlan.describe`.
    label = "step"
    #: whether a following elementwise activation may be absorbed into this step.
    fuses = True

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


#: exact layer class -> its native step (a subclass that overrides
#: ``forward`` is a different class, so it falls back instead of running
#: its parent's kernel)
_NATIVE_STEPS: Dict[type, Type[_Step]] = {}


def plan_step(layer_cls: type) -> Callable[[Type[_Step]], Type[_Step]]:
    """Class decorator: compile ``layer_cls`` layers to the decorated step."""

    def register(step_cls: Type[_Step]) -> Type[_Step]:
        _NATIVE_STEPS[layer_cls] = step_cls
        return step_cls

    return register


class _FallbackStep(_Step):
    """Unknown layer: delegate to its ordinary inference forward."""

    label = "fallback"
    fuses = False

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        out = self.layer.forward(x, training=False)
        if out is x or np.may_share_memory(out, x):
            # the layer returned its input (or a view of it): a later
            # in-place step may only mutate it if the input was already
            # plan-owned, never when it aliases the caller's array
            return out, owned
        return out, True


@plan_step(Dense)
class _DenseStep(_Step):
    label = "dense"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        layer = self.layer
        layer.output_shape(x.shape[1:])
        params = layer.params
        weight = params["W"]
        out = arena.get(self.step, "out", (x.shape[0], weight.shape[1]))
        np.matmul(x, weight, out=out)
        if layer.use_bias:
            out += params["b"]
        if self.activation is not None:
            self.activation(out, arena, self.step)
        return out, True


@plan_step(Conv2D)
class _Conv2DStep(_Step):
    label = "conv"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        layer = self.layer
        out_h, out_w, _ = layer.output_shape(x.shape[1:])
        params = layer.params
        cols = _im2col_into(x, layer, out_h, out_w, arena, self.step)
        w_mat = params["W"].reshape(-1, layer.out_channels)
        flat = arena.get(self.step, "out", (cols.shape[0], layer.out_channels))
        np.matmul(cols, w_mat, out=flat)
        if layer.use_bias:
            flat += params["b"]
        if self.activation is not None:
            self.activation(flat, arena, self.step)
        return flat.reshape(x.shape[0], out_h, out_w, layer.out_channels), True


@plan_step(DepthwiseConv2D)
class _DepthwiseConv2DStep(_Step):
    label = "dwconv"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        layer = self.layer
        out_h, out_w, _ = layer.output_shape(x.shape[1:])
        params = layer.params
        k2 = layer.kernel_size * layer.kernel_size
        cols = _im2col_into(x, layer, out_h, out_w, arena, self.step)
        cols3 = cols.reshape(-1, k2, layer.in_channels)
        w3 = params["W"].reshape(k2, layer.in_channels)
        out = arena.get(self.step, "out", (cols3.shape[0], layer.in_channels))
        np.einsum("pkc,kc->pc", cols3, w3, out=out)
        if layer.use_bias:
            out += params["b"]
        if self.activation is not None:
            self.activation(out, arena, self.step)
        return out.reshape(x.shape[0], out_h, out_w, layer.in_channels), True


@plan_step(BatchNorm)
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
        layer.output_shape(x.shape[1:])
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
    fuses = False

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


@plan_step(MaxPool2D)
class _MaxPoolStep(_Step):
    label = "maxpool"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        out_h, out_w, channels = self.layer.output_shape(x.shape[1:])
        p = self.layer.pool_size
        windows = x.reshape(x.shape[0], out_h, p, out_w, p, channels)
        out = arena.get(self.step, "out", (x.shape[0], out_h, out_w, channels))
        windows.max(axis=(2, 4), out=out)
        if self.activation is not None:
            self.activation(out, arena, self.step)
        return out, True


@plan_step(AvgPool2D)
class _AvgPoolStep(_Step):
    label = "avgpool"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        out_h, out_w, channels = self.layer.output_shape(x.shape[1:])
        p = self.layer.pool_size
        windows = x.reshape(x.shape[0], out_h, p, out_w, p, channels)
        out = arena.get(self.step, "out", (x.shape[0], out_h, out_w, channels))
        windows.mean(axis=(2, 4), out=out)
        if self.activation is not None:
            self.activation(out, arena, self.step)
        return out, True


@plan_step(GlobalAvgPool2D)
class _GlobalAvgPoolStep(_Step):
    label = "gap"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        out = arena.get(self.step, "out", (x.shape[0], *self.layer.output_shape(x.shape[1:])))
        x.mean(axis=(1, 2), out=out)
        if self.activation is not None:
            self.activation(out, arena, self.step)
        return out, True


@plan_step(Flatten)
class _FlattenStep(_Step):
    label = "flatten"
    fuses = False

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        flat = x.reshape(x.shape[0], -1)
        # reshape yields a view of a contiguous buffer (ownership carries
        # over) or a fresh copy (which the plan then owns outright)
        return flat, owned or flat.base is None


@plan_step(Dropout)
class _IdentityStep(_Step):
    """Inference-mode no-op (Dropout)."""

    label = "identity"
    fuses = False

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


@plan_step(SimpleRNN)
class _SimpleRNNStep(_Step):
    label = "rnn"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        layer = self.layer
        layer.output_shape(x.shape[1:])
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


@plan_step(GRUCellLayer)
class _GRUStep(_Step):
    label = "gru"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        layer = self.layer
        layer.output_shape(x.shape[1:])
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


@plan_step(LSTMLayer)
class _LSTMStep(_Step):
    label = "lstm"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        layer = self.layer
        layer.output_shape(x.shape[1:])
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


class FastGRNNStep(_Step):
    """Native step for ``FastGRNNLayer``, which lives outside :mod:`repro.nn`:
    :mod:`repro.eialgorithms.fastgrnn` registers it with :func:`plan_step`
    on import, so this module never imports the layer class."""

    label = "fastgrnn"

    def run(self, x: np.ndarray, owned: bool, arena: WorkspaceArena) -> Tuple[np.ndarray, bool]:
        layer = self.layer
        layer.output_shape(x.shape[1:])
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
    steps: List[_Step] = []
    fused = 0
    layers = list(model.layers)
    position = 0
    while position < len(layers):
        layer = layers[position]
        step: _Step
        if type(layer) is SeparableConv2D:
            # two native sub-steps; the trailing activation fuses into the
            # pointwise GEMM below
            steps.append(_DepthwiseConv2DStep(layer.depthwise, len(steps)))
            step = _Conv2DStep(layer.pointwise, len(steps))
        elif type(layer) in _NATIVE_STEPS:
            step = _NATIVE_STEPS[type(layer)](layer, len(steps))
        else:
            kernel = _activation_kernel(layer)
            if kernel is not None:
                step = _ActivationStep(layer, len(steps), kernel)
            else:
                step = _FallbackStep(layer, len(steps))
        # absorb a following elementwise activation into GEMM-like steps
        if step.fuses:
            while position + 1 < len(layers) and step.activation is None:
                if step.fuse_activation(layers[position + 1]):
                    position += 1
                    fused += 1
                else:
                    break
        steps.append(step)
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
