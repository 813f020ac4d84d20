"""The CosmoFlow network topology (Figure 2 reconstruction).

The paper specifies: 7 convolution layers, 3 average-pooling layers
(kernel 2, stride (2,2,2)) each following one of the first three convs,
3 fully connected layers, leaky-ReLU activations everywhere, output
channel counts that are multiples of 16, channels doubling at each
pooled stage, no batch norm, and 3 outputs.  The exact kernel sizes and
tail-layer widths are reconstructed from Table I's implied per-layer
flops (see DESIGN.md §3): conv1 k=3 (1→16), conv2 k=4 (16→32), conv3
k=4 (32→64), conv4–7 k=3 (64→64), FC 8000→784→256→3.  This yields
7,081,523 parameters (28.33 MB) vs the paper's "slightly more than
seven million" (28.15 MB).

Presets:

* :func:`paper_128` — the full 128³ network above.
* :func:`ravanbakhsh_64` — the 64³, 2-parameter predecessor the paper
  scaled up from (6 convs, 2 pools), for the baseline experiments.
* :func:`scaled_32` / :func:`tiny_16` — shape-preserving reductions
  used by the convergence experiments and tests, where the full 128³
  network's 69 Gflop/sample is not affordable in NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from repro.core.parameters import ParameterSpace
from repro.primitives.conv3d import conv3d_output_shape
from repro.primitives.pool3d import pool3d_output_shape
from repro.tensor.layers import (
    AvgPool3D,
    Conv3D,
    Dense,
    Flatten,
    LeakyReLU,
    Sequential,
)
from repro.utils.rng import new_rng

__all__ = [
    "ConvSpec",
    "CosmoFlowConfig",
    "paper_128",
    "ravanbakhsh_64",
    "scaled_32",
    "tiny_16",
    "build_network",
    "PRESETS",
]


@dataclass(frozen=True)
class ConvSpec:
    """One convolution stage: conv (+ activation), optionally pooled."""

    out_channels: int
    kernel: int
    pool: bool = False


@dataclass(frozen=True)
class CosmoFlowConfig:
    """Complete architectural description of a CosmoFlow-family network."""

    name: str
    input_size: int
    conv_layers: Tuple[ConvSpec, ...]
    fc_sizes: Tuple[int, ...]
    n_outputs: int = 3
    input_channels: int = 1
    leaky_alpha: float = 0.2
    pool_kernel: int = 2
    #: Apply leaky ReLU to the final (output) layer.  The paper says
    #: "all convolution and FC layers use leaky Relu"; a linear head is
    #: the conventional regression choice and with [0,1]-normalized
    #: targets the two train almost identically.  Default False.
    output_activation: bool = False

    def __post_init__(self):
        if self.input_size < 4:
            raise ValueError(f"input_size {self.input_size} too small")
        if not self.conv_layers:
            raise ValueError("need at least one convolution layer")
        if self.n_outputs < 1:
            raise ValueError("n_outputs must be >= 1")
        # Fail fast if the spatial extent collapses.
        self.spatial_sizes()

    # -- shape bookkeeping ---------------------------------------------------

    def spatial_sizes(self) -> List[int]:
        """Spatial extent after each conv/pool stage (cubic volumes).

        Returns one entry per conv layer giving the extent *after* that
        layer and its pooling (if any).
        """
        size = self.input_size
        out: List[int] = []
        for i, spec in enumerate(self.conv_layers):
            (size, _, _) = conv3d_output_shape((size,) * 3, spec.kernel)
            if size < 1:
                raise ValueError(f"spatial extent collapsed at conv layer {i + 1}")
            if spec.pool:
                (size, _, _) = pool3d_output_shape((size,) * 3, self.pool_kernel)
                if size < 1:
                    raise ValueError(f"spatial extent collapsed at pool after conv {i + 1}")
            out.append(size)
        return out

    @property
    def flattened_size(self) -> int:
        """Input width of the first FC layer."""
        return self.spatial_sizes()[-1] ** 3 * self.conv_layers[-1].out_channels

    @property
    def n_conv(self) -> int:
        return len(self.conv_layers)

    @property
    def n_pool(self) -> int:
        return sum(1 for s in self.conv_layers if s.pool)

    @property
    def n_fc(self) -> int:
        return len(self.fc_sizes) + 1

    def with_outputs(self, n_outputs: int) -> "CosmoFlowConfig":
        return replace(self, n_outputs=n_outputs, name=f"{self.name}_out{n_outputs}")

    def describe(self) -> str:
        """Figure-2-style textual topology description."""
        lines = [f"CosmoFlow topology {self.name!r} (input {self.input_size}^3)"]
        size = self.input_size
        channels = self.input_channels
        for i, spec in enumerate(self.conv_layers, start=1):
            (size, _, _) = conv3d_output_shape((size,) * 3, spec.kernel)
            lines.append(
                f"  conv{i}: {channels}->{spec.out_channels} ch, "
                f"k={spec.kernel}^3 -> {size}^3"
            )
            channels = spec.out_channels
            if spec.pool:
                (size, _, _) = pool3d_output_shape((size,) * 3, self.pool_kernel)
                lines.append(f"  pool{i}: /{self.pool_kernel} -> {size}^3")
        flat = size**3 * channels
        lines.append(f"  flatten: {flat}")
        prev = flat
        for j, width in enumerate(self.fc_sizes, start=1):
            lines.append(f"  fc{j}: {prev}->{width}")
            prev = width
        lines.append(f"  fc{len(self.fc_sizes) + 1}: {prev}->{self.n_outputs} (outputs)")
        return "\n".join(lines)


# -- presets ------------------------------------------------------------------


def paper_128() -> CosmoFlowConfig:
    """The full SC18 network: 128³ input, 3 outputs (ΩM, σ8, ns)."""
    return CosmoFlowConfig(
        name="paper_128",
        input_size=128,
        conv_layers=(
            ConvSpec(16, 3, pool=True),
            ConvSpec(32, 4, pool=True),
            ConvSpec(64, 4, pool=True),
            ConvSpec(64, 3),
            ConvSpec(64, 3),
            ConvSpec(64, 3),
            ConvSpec(64, 3),
        ),
        fc_sizes=(784, 256),
        n_outputs=3,
    )


def ravanbakhsh_64() -> CosmoFlowConfig:
    """The 64³ predecessor network (Ravanbakhsh et al. 2017): one fewer
    conv+pool stage, two predicted parameters (ΩM, σ8)."""
    return CosmoFlowConfig(
        name="ravanbakhsh_64",
        input_size=64,
        conv_layers=(
            ConvSpec(16, 3, pool=True),
            ConvSpec(32, 4, pool=True),
            ConvSpec(64, 3),
            ConvSpec(64, 3),
            ConvSpec(64, 3),
            ConvSpec(64, 3),
        ),
        fc_sizes=(256, 128),
        n_outputs=2,
    )


def scaled_32() -> CosmoFlowConfig:
    """Shape-preserving 32³ reduction (conv/pool/conv/pool/conv/conv + 3 FC)
    used for the convergence and prediction experiments at laptop cost."""
    return CosmoFlowConfig(
        name="scaled_32",
        input_size=32,
        conv_layers=(
            ConvSpec(16, 3, pool=True),
            ConvSpec(32, 4, pool=True),
            ConvSpec(64, 3),
            ConvSpec(64, 3),
        ),
        fc_sizes=(128, 64),
        n_outputs=3,
    )


def tiny_16() -> CosmoFlowConfig:
    """Minimal 16³ network for unit tests and smoke runs."""
    return CosmoFlowConfig(
        name="tiny_16",
        input_size=16,
        conv_layers=(
            ConvSpec(16, 3, pool=True),
            ConvSpec(32, 3),
            ConvSpec(32, 3),
        ),
        fc_sizes=(32,),
        n_outputs=3,
    )


PRESETS = {
    "paper_128": paper_128,
    "ravanbakhsh_64": ravanbakhsh_64,
    "scaled_32": scaled_32,
    "tiny_16": tiny_16,
}


def build_network(config: CosmoFlowConfig, seed=None) -> Sequential:
    """Assemble the :class:`~repro.tensor.layers.Sequential` network.

    Parameters
    ----------
    config
        Architecture description.
    seed
        Seed or generator for weight initialization.
    """
    rng = new_rng(seed)
    layers: List = []
    channels = config.input_channels
    for i, spec in enumerate(config.conv_layers, start=1):
        layers.append(
            Conv3D(channels, spec.out_channels, spec.kernel, rng=rng, name=f"conv{i}")
        )
        layers.append(LeakyReLU(config.leaky_alpha, name=f"lrelu_conv{i}"))
        if spec.pool:
            layers.append(AvgPool3D(config.pool_kernel, name=f"pool{i}"))
        channels = spec.out_channels
    layers.append(Flatten(name="flatten"))
    prev = config.flattened_size
    for j, width in enumerate(config.fc_sizes, start=1):
        layers.append(Dense(prev, width, rng=rng, name=f"fc{j}"))
        layers.append(LeakyReLU(config.leaky_alpha, name=f"lrelu_fc{j}"))
        prev = width
    layers.append(Dense(prev, config.n_outputs, rng=rng, name=f"fc{len(config.fc_sizes) + 1}"))
    if config.output_activation:
        layers.append(LeakyReLU(config.leaky_alpha, name="lrelu_out"))
    return Sequential(layers, name=config.name)


def default_parameter_space(config: CosmoFlowConfig) -> ParameterSpace:
    """The parameter space matching the config's output count."""
    space = ParameterSpace()
    if config.n_outputs == space.n_params:
        return space
    return space.subset(space.names[: config.n_outputs])
