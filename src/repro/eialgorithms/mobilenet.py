"""MobileNet-style compact CNN (Howard et al., the paper's flagship EI algorithm).

The architecture is a stack of depthwise-separable convolution blocks
with the two hyper-parameters Google introduced: a **width multiplier**
that thins every layer and a **resolution multiplier** the caller applies
by shrinking the input.  Both let "the model builder choose the right
sized model for the specific application", exactly the selection space
the OpenEI model selector explores.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.nn.layers import (
    BatchNorm,
    Conv2D,
    Dense,
    GlobalAvgPool2D,
    ReLU,
    SeparableConv2D,
    Softmax,
)
from repro.nn.model import Sequential

#: Output channels of each depthwise-separable block before width scaling.
BLOCK_CHANNELS = (16, 32, 64)


def build_mobilenet(
    input_shape: Tuple[int, int, int] = (16, 16, 1),
    num_classes: int = 4,
    width_multiplier: float = 1.0,
    use_batchnorm: bool = True,
    seed: Optional[int] = 0,
    name: Optional[str] = None,
) -> Sequential:
    """Build a MobileNet-style classifier.

    Parameters
    ----------
    width_multiplier:
        The MobileNet alpha: every channel count is scaled by this factor.
    """
    if len(input_shape) != 3:
        raise ConfigurationError("input_shape must be (height, width, channels)")
    if width_multiplier <= 0:
        raise ConfigurationError("width_multiplier must be positive")
    if num_classes <= 1:
        raise ConfigurationError("num_classes must be at least 2")

    def scaled(channels: int) -> int:
        return max(1, int(round(channels * width_multiplier)))

    _, _, in_channels = input_shape
    model = Sequential(name=name or f"mobilenet-{width_multiplier:g}x")
    first = scaled(BLOCK_CHANNELS[0])
    model.add(Conv2D(in_channels, first, kernel_size=3, stride=1, seed=seed))
    if use_batchnorm:
        model.add(BatchNorm(first))
    model.add(ReLU())
    previous = first
    for idx, channels in enumerate(BLOCK_CHANNELS[1:], start=1):
        out = scaled(channels)
        stride = 2 if idx % 2 == 0 else 1
        model.add(
            SeparableConv2D(
                previous,
                out,
                kernel_size=3,
                stride=stride,
                seed=None if seed is None else seed + idx,
            )
        )
        if use_batchnorm:
            model.add(BatchNorm(out))
        model.add(ReLU())
        previous = out
    model.add(GlobalAvgPool2D())
    model.add(Dense(previous, num_classes, seed=None if seed is None else seed + 100))
    model.add(Softmax())
    model.metadata["family"] = "mobilenet"
    model.metadata["width_multiplier"] = width_multiplier
    return model
