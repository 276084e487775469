"""Convolutional layers (standard, depthwise and depthwise-separable).

The depthwise-separable convolution is the building block of MobileNet
and Xception, two of the EI algorithms the paper highlights, so it is a
first-class layer here.  Data layout is NHWC and the implementation uses
im2col so the arithmetic maps onto dense matrix multiplies.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn import initializers
from repro.nn.layers.base import Layer, ParametricLayer


def _pad_input(inputs: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return inputs
    return np.pad(inputs, ((0, 0), (pad, pad), (pad, pad), (0, 0)), mode="constant")


def _conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


def _conv_contract(layer: ParametricLayer, input_shape: Tuple[int, ...]) -> Tuple[int, int]:
    """The input contract Conv2D and DepthwiseConv2D share; returns ``(out_h, out_w)``.

    Rank, channel count, and a spatial output the kernel/stride/padding
    does not collapse to nothing.
    """
    layer._expect_rank(input_shape, 3, "(height, width, channels) input")
    height, width, channels = input_shape
    if channels != layer.in_channels:
        raise ConfigurationError(
            f"{layer.label} expects {layer.in_channels} channels, got {channels}"
        )
    out_h = _conv_output_size(height, layer.kernel_size, layer.stride, layer.pad)
    out_w = _conv_output_size(width, layer.kernel_size, layer.stride, layer.pad)
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"{layer.label} kernel {layer.kernel_size} stride {layer.stride} padding "
            f"{layer.padding!r} collapses a {height}x{width} map to {out_h}x{out_w}"
        )
    return out_h, out_w


def im2col(inputs: np.ndarray, kernel: int, stride: int, pad: int) -> Tuple[np.ndarray, int, int]:
    """Rearrange image patches into rows.

    Returns a matrix of shape ``(batch * out_h * out_w, kernel * kernel * channels)``
    together with the output spatial dimensions.
    """
    batch, height, width, channels = inputs.shape
    out_h = _conv_output_size(height, kernel, stride, pad)
    out_w = _conv_output_size(width, kernel, stride, pad)
    padded = _pad_input(inputs, pad)
    cols = np.empty((batch, out_h, out_w, kernel, kernel, channels), dtype=inputs.dtype)
    for i in range(kernel):
        i_end = i + stride * out_h
        for j in range(kernel):
            j_end = j + stride * out_w
            cols[:, :, :, i, j, :] = padded[:, i:i_end:stride, j:j_end:stride, :]
    return cols.reshape(batch * out_h * out_w, kernel * kernel * channels), out_h, out_w


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`, summing overlapping contributions."""
    batch, height, width, channels = input_shape
    out_h = _conv_output_size(height, kernel, stride, pad)
    out_w = _conv_output_size(width, kernel, stride, pad)
    cols = cols.reshape(batch, out_h, out_w, kernel, kernel, channels)
    padded = np.zeros((batch, height + 2 * pad, width + 2 * pad, channels), dtype=cols.dtype)
    for i in range(kernel):
        i_end = i + stride * out_h
        for j in range(kernel):
            j_end = j + stride * out_w
            padded[:, i:i_end:stride, j:j_end:stride, :] += cols[:, :, :, i, j, :]
    if pad == 0:
        return padded
    return padded[:, pad:-pad, pad:-pad, :]


class Conv2D(ParametricLayer):
    """Standard 2-D convolution over NHWC inputs."""

    kind = "conv"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: str = "same",
        use_bias: bool = True,
        weight_init: str = "he_normal",
        name: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(name=name, seed=seed)
        if in_channels <= 0 or out_channels <= 0 or kernel_size <= 0 or stride <= 0:
            raise ConfigurationError("Conv2D requires positive channel, kernel and stride values")
        if padding not in ("same", "valid"):
            raise ConfigurationError("padding must be 'same' or 'valid'")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = padding
        self.use_bias = bool(use_bias)
        self.weight_init = str(weight_init)
        init = initializers.get(weight_init)
        self._params["W"] = init(
            (self.kernel_size, self.kernel_size, self.in_channels, self.out_channels), self._rng
        )
        if self.use_bias:
            self._params["b"] = initializers.zeros((self.out_channels,), self._rng)
        self.zero_grads()
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, int, int, int], int, int]] = None

    @property
    def pad(self) -> int:
        """Padding in pixels implied by the padding mode."""
        if self.padding == "same":
            return (self.kernel_size - 1) // 2
        return 0

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        self.output_shape(inputs.shape[1:])
        cols, out_h, out_w = im2col(inputs, self.kernel_size, self.stride, self.pad)
        w_mat = self._params["W"].reshape(-1, self.out_channels)
        out = cols @ w_mat
        if self.use_bias:
            out = out + self._params["b"]
        out = out.reshape(inputs.shape[0], out_h, out_w, self.out_channels)
        if training:
            self._cache = (cols, inputs.shape, out_h, out_w)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        cols, input_shape, out_h, out_w = self._cache
        batch = input_shape[0]
        grad_mat = grad_output.reshape(batch * out_h * out_w, self.out_channels)
        w_mat = self._params["W"].reshape(-1, self.out_channels)
        self._grads["W"] = (cols.T @ grad_mat).reshape(self._params["W"].shape)
        if self.use_bias:
            self._grads["b"] = grad_mat.sum(axis=0)
        grad_cols = grad_mat @ w_mat.T
        return col2im(grad_cols, input_shape, self.kernel_size, self.stride, self.pad)

    def get_config(self) -> Dict[str, object]:
        return {
            **super().get_config(),
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel_size": self.kernel_size,
            "stride": self.stride,
            "padding": self.padding,
            "use_bias": self.use_bias,
            "weight_init": self.weight_init,
        }

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (*_conv_contract(self, input_shape), self.out_channels)

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        out_h, out_w, _ = self.output_shape(input_shape)
        per_position = self.kernel_size * self.kernel_size * self.in_channels * self.out_channels
        return int(out_h * out_w * per_position)


class DepthwiseConv2D(ParametricLayer):
    """Depthwise 2-D convolution: one filter per input channel."""

    kind = "conv"

    def __init__(
        self,
        in_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: str = "same",
        use_bias: bool = True,
        weight_init: str = "he_normal",
        name: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(name=name, seed=seed)
        if in_channels <= 0 or kernel_size <= 0 or stride <= 0:
            raise ConfigurationError("DepthwiseConv2D requires positive channel/kernel/stride")
        if padding not in ("same", "valid"):
            raise ConfigurationError("padding must be 'same' or 'valid'")
        self.in_channels = int(in_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = padding
        self.use_bias = bool(use_bias)
        self.weight_init = str(weight_init)
        init = initializers.get(weight_init)
        self._params["W"] = init(
            (self.kernel_size, self.kernel_size, self.in_channels, 1), self._rng
        ).reshape(self.kernel_size, self.kernel_size, self.in_channels)
        if self.use_bias:
            self._params["b"] = initializers.zeros((self.in_channels,), self._rng)
        self.zero_grads()
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, int, int, int], int, int]] = None

    @property
    def pad(self) -> int:
        if self.padding == "same":
            return (self.kernel_size - 1) // 2
        return 0

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        self.output_shape(inputs.shape[1:])
        cols, out_h, out_w = im2col(inputs, self.kernel_size, self.stride, self.pad)
        batch = inputs.shape[0]
        # cols: (batch*oh*ow, k*k*C) -> (positions, k*k, C)
        cols3 = cols.reshape(-1, self.kernel_size * self.kernel_size, self.in_channels)
        w3 = self._params["W"].reshape(self.kernel_size * self.kernel_size, self.in_channels)
        out = np.einsum("pkc,kc->pc", cols3, w3)
        if self.use_bias:
            out = out + self._params["b"]
        out = out.reshape(batch, out_h, out_w, self.in_channels)
        if training:
            self._cache = (cols3, inputs.shape, out_h, out_w)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        cols3, input_shape, out_h, out_w = self._cache
        batch = input_shape[0]
        grad_mat = grad_output.reshape(batch * out_h * out_w, self.in_channels)
        w3 = self._params["W"].reshape(self.kernel_size * self.kernel_size, self.in_channels)
        self._grads["W"] = np.einsum("pkc,pc->kc", cols3, grad_mat).reshape(self._params["W"].shape)
        if self.use_bias:
            self._grads["b"] = grad_mat.sum(axis=0)
        grad_cols3 = np.einsum("pc,kc->pkc", grad_mat, w3)
        grad_cols = grad_cols3.reshape(batch * out_h * out_w, -1)
        return col2im(grad_cols, input_shape, self.kernel_size, self.stride, self.pad)

    def get_config(self) -> Dict[str, object]:
        return {
            **super().get_config(),
            "in_channels": self.in_channels,
            "kernel_size": self.kernel_size,
            "stride": self.stride,
            "padding": self.padding,
            "use_bias": self.use_bias,
            "weight_init": self.weight_init,
        }

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (*_conv_contract(self, input_shape), self.in_channels)

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        out_h, out_w, _ = self.output_shape(input_shape)
        return int(out_h * out_w * self.kernel_size * self.kernel_size * self.in_channels)


class SeparableConv2D(Layer):
    """Depthwise-separable convolution: depthwise followed by a 1x1 pointwise conv.

    This is the factorization MobileNet and Xception use to cut the
    multiply-accumulate count by roughly ``k^2`` relative to a standard
    convolution with the same receptive field.
    """

    kind = "conv"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: str = "same",
        use_bias: bool = True,
        name: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(name=name)
        self.depthwise = DepthwiseConv2D(
            in_channels,
            kernel_size=kernel_size,
            stride=stride,
            padding=padding,
            use_bias=use_bias,
            name=f"{self.name}/depthwise",
            seed=seed,
        )
        self.pointwise = Conv2D(
            in_channels,
            out_channels,
            kernel_size=1,
            stride=1,
            padding="valid",
            use_bias=use_bias,
            name=f"{self.name}/pointwise",
            seed=None if seed is None else seed + 1,
        )
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)

    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        return self.pointwise.forward(self.depthwise.forward(inputs, training), training)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.depthwise.backward(self.pointwise.backward(grad_output))

    @property
    def params(self):
        merged = {f"depthwise/{k}": v for k, v in self.depthwise.params.items()}
        merged.update({f"pointwise/{k}": v for k, v in self.pointwise.params.items()})
        return merged

    @property
    def grads(self):
        merged = {f"depthwise/{k}": v for k, v in self.depthwise.grads.items()}
        merged.update({f"pointwise/{k}": v for k, v in self.pointwise.grads.items()})
        return merged

    def set_param(self, key: str, value: np.ndarray) -> None:
        """Replace a nested parameter addressed as 'depthwise/W' or 'pointwise/W'."""
        prefix, _, inner = key.partition("/")
        if prefix == "depthwise":
            self.depthwise.set_param(inner, value)
        elif prefix == "pointwise":
            self.pointwise.set_param(inner, value)
        else:
            raise KeyError(f"SeparableConv2D has no parameter {key!r}")

    def get_config(self) -> Dict[str, object]:
        return {
            **super().get_config(),
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel_size": self.depthwise.kernel_size,
            "stride": self.depthwise.stride,
            "padding": self.depthwise.padding,
            "use_bias": self.depthwise.use_bias,
        }

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return self.pointwise.output_shape(self.depthwise.output_shape(input_shape))

    def flops(self, input_shape: Tuple[int, ...]) -> int:
        depthwise_flops = self.depthwise.flops(input_shape)
        pointwise_flops = self.pointwise.flops(self.depthwise.output_shape(input_shape))
        return depthwise_flops + pointwise_flops
