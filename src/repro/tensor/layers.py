"""Layer objects: parameter-owning building blocks.

A :class:`Layer` owns :class:`~repro.tensor.tensor.Parameter` objects
and implements ``forward``.  :class:`Sequential` chains layers — this
is the unit the CosmoFlow topology builder assembles, playing the role
of TensorFlow's graph construction.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

import numpy as np

from repro.tensor import initializers, ops
from repro.tensor.ops.activations import DEFAULT_LEAKY_ALPHA
from repro.tensor.tensor import Parameter, Tensor
from repro.utils.rng import new_rng

__all__ = [
    "Layer",
    "Conv3D",
    "AvgPool3D",
    "Dense",
    "Flatten",
    "LeakyReLU",
    "BatchNorm",
    "Sequential",
]


class Layer:
    """Base class: a named, parameter-owning callable."""

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__.lower()

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x) -> Tensor:
        return self.forward(x if isinstance(x, Tensor) else Tensor(x))

    def parameters(self) -> List[Parameter]:
        """All trainable parameters owned (directly) by this layer."""
        return [v for v in vars(self).values() if isinstance(v, Parameter)]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def set_training(self, training: bool) -> None:
        """Switch train/inference behaviour (no-op for stateless layers;
        :class:`BatchNorm` and containers override)."""

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Per-sample output shape given a per-sample input shape
        (no batch axis)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, params={self.num_parameters()})"


class Conv3D(Layer):
    """3D convolution layer with optional bias.

    Weights are ``(OC, IC, KD, KH, KW)``, He-initialized for leaky ReLU.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int | tuple[int, int, int],
        stride=1,
        padding=0,
        bias: bool = True,
        rng=None,
        name: str = "",
    ):
        super().__init__(name)
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        k = (kernel,) * 3 if np.isscalar(kernel) else tuple(kernel)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = k
        self.stride = stride
        self.padding = padding
        rng = new_rng(rng)
        self.weight = Parameter(
            initializers.he_normal(
                (out_channels, in_channels) + k, rng, leaky_alpha=DEFAULT_LEAKY_ALPHA
            ),
            name=f"{self.name}/weight",
        )
        self.bias = (
            Parameter(initializers.zeros((out_channels,)), name=f"{self.name}/bias")
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv3d(x, self.weight, self.bias, self.stride, self.padding)

    def output_shape(self, input_shape):
        from repro.primitives.conv3d import conv3d_output_shape

        c, *spatial = input_shape
        if c != self.in_channels:
            raise ValueError(f"{self.name}: expected {self.in_channels} channels, got {c}")
        return (self.out_channels,) + conv3d_output_shape(
            tuple(spatial), self.kernel, self.stride, self.padding
        )


class AvgPool3D(Layer):
    """Average pooling; stride defaults to the kernel (CosmoFlow: 2, (2,2,2))."""

    def __init__(self, kernel=2, stride=None, name: str = ""):
        super().__init__(name)
        self.kernel = kernel
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return ops.avg_pool3d(x, self.kernel, self.stride)

    def output_shape(self, input_shape):
        from repro.primitives.pool3d import pool3d_output_shape

        c, *spatial = input_shape
        return (c,) + pool3d_output_shape(tuple(spatial), self.kernel, self.stride)


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng=None,
        name: str = "",
    ):
        super().__init__(name)
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature counts must be positive")
        self.in_features = in_features
        self.out_features = out_features
        rng = new_rng(rng)
        self.weight = Parameter(
            initializers.he_normal(
                (in_features, out_features), rng, leaky_alpha=DEFAULT_LEAKY_ALPHA
            ),
            name=f"{self.name}/weight",
        )
        self.bias = (
            Parameter(initializers.zeros((out_features,)), name=f"{self.name}/bias")
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)

    def output_shape(self, input_shape):
        if tuple(input_shape) != (self.in_features,):
            raise ValueError(
                f"{self.name}: expected ({self.in_features},) input, got {input_shape}"
            )
        return (self.out_features,)


class Flatten(Layer):
    """Flatten per-sample axes, keeping the batch axis."""

    def forward(self, x: Tensor) -> Tensor:
        return ops.flatten(x, start_axis=1)

    def output_shape(self, input_shape):
        return (int(np.prod(input_shape)),)


class LeakyReLU(Layer):
    """Leaky ReLU activation layer."""

    def __init__(self, alpha: float = DEFAULT_LEAKY_ALPHA, name: str = ""):
        super().__init__(name)
        self.alpha = alpha

    def forward(self, x: Tensor) -> Tensor:
        return ops.leaky_relu(x, self.alpha)

    def output_shape(self, input_shape):
        return tuple(input_shape)


class BatchNorm(Layer):
    """Per-channel batch normalization (see
    :mod:`repro.tensor.ops.batchnorm` for why CosmoFlow removes it).

    ``train()`` / ``eval()`` switch between batch and running
    statistics, mirroring framework conventions.
    """

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1, name: str = ""):
        super().__init__(name)
        if channels < 1:
            raise ValueError("channels must be >= 1")
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(channels, dtype=np.float32), name=f"{self.name}/gamma")
        self.beta = Parameter(np.zeros(channels, dtype=np.float32), name=f"{self.name}/beta")
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)
        self.training = True

    def train(self) -> "BatchNorm":
        self.training = True
        return self

    def eval(self) -> "BatchNorm":
        self.training = False
        return self

    def set_training(self, training: bool) -> None:
        self.training = training

    def forward(self, x: Tensor) -> Tensor:
        from repro.tensor.ops.batchnorm import batch_norm

        return batch_norm(
            x,
            self.gamma,
            self.beta,
            eps=self.eps,
            running_stats=(self.running_mean, self.running_var),
            training=self.training,
            momentum=self.momentum,
        )

    def output_shape(self, input_shape):
        if input_shape[0] != self.channels:
            raise ValueError(
                f"{self.name}: expected {self.channels} channels, got {input_shape[0]}"
            )
        return tuple(input_shape)


class Sequential(Layer):
    """A chain of layers applied in order."""

    def __init__(self, layers: Iterable[Layer], name: str = ""):
        super().__init__(name)
        self.layers: List[Layer] = list(layers)
        if not self.layers:
            raise ValueError("Sequential requires at least one layer")
        # The chain is fixed at construction, so its parameter list is too:
        # gathered once, not by walking every layer's attributes per call.
        self._parameters = tuple(p for layer in self.layers for p in layer.parameters())

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def parameters(self) -> List[Parameter]:
        return list(self._parameters)

    def set_training(self, training: bool) -> None:
        for layer in self.layers:
            layer.set_training(training)

    def train(self) -> "Sequential":
        self.set_training(True)
        return self

    def eval(self) -> "Sequential":
        self.set_training(False)
        return self

    def output_shape(self, input_shape):
        shape = tuple(input_shape)
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def summary(self, input_shape) -> str:
        """Per-layer table of output shapes and parameter counts."""
        lines = [f"{'layer':<16}{'output shape':<24}{'params':>10}"]
        shape = tuple(input_shape)
        for layer in self.layers:
            shape = layer.output_shape(shape)
            lines.append(f"{layer.name:<16}{str(shape):<24}{layer.num_parameters():>10,}")
        lines.append(f"{'total':<16}{'':<24}{self.num_parameters():>10,}")
        return "\n".join(lines)
