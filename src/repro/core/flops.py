"""Analytical flop and parameter accounting.

The paper reports (Section V-A): "With a mini-batch size of one, the
total amount of computation in the network is 69.33 Gflop, and the
network requires 28.15 MB of parameters" (≈7.04 M fp32 values), and
Table I gives per-convolution-layer times and flop rates.

This module computes, exactly and without running the network, every
layer's parameter count and forward / backward-data / backward-weights
flops for any :class:`~repro.core.topology.CosmoFlowConfig`.  The
counting convention is the standard one the paper's numbers follow:

* convolution: ``2 * out_voxels * OC * IC * K^3`` per pass
  (multiply + add), with backward-data and backward-weights each equal
  to forward, and no backward-data for the first layer (its input needs
  no gradient — Table I's empty conv1 Bwd cell);
* dense: ``2 * IN * OUT`` per pass per sample;
* average pooling: ``out_voxels * C * K^3`` adds per pass (bandwidth
  bound; negligible);
* activations: 1 flop per element (negligible).

These numbers drive the Table I / E1 benchmarks and calibrate the
performance model's compute times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.topology import CosmoFlowConfig
from repro.primitives.conv3d import conv3d_output_shape
from repro.primitives.pool3d import pool3d_output_shape

__all__ = [
    "LayerCost",
    "network_costs",
    "total_flops",
    "parameter_count",
    "parameter_bytes",
    "table1_rows",
    "PAPER_TOTAL_FLOPS",
    "PAPER_PARAM_BYTES",
    "PAPER_PARAM_COUNT",
]

#: The paper's headline constants (Section V-A).
PAPER_TOTAL_FLOPS = 69.33e9
PAPER_PARAM_BYTES = 28.15e6
PAPER_PARAM_COUNT = PAPER_PARAM_BYTES / 4.0  # fp32


@dataclass(frozen=True)
class LayerCost:
    """Static cost of one layer at mini-batch 1."""

    name: str
    kind: str  # "conv" | "pool" | "dense" | "activation" | "flatten"
    output_shape: tuple
    params: int
    fwd_flops: float
    bwd_data_flops: float
    bwd_weight_flops: float

    @property
    def total_flops(self) -> float:
        return self.fwd_flops + self.bwd_data_flops + self.bwd_weight_flops


def network_costs(config: CosmoFlowConfig) -> List[LayerCost]:
    """Per-layer costs, in network order, for a mini-batch of one."""
    costs: List[LayerCost] = []
    size = config.input_size
    channels = config.input_channels
    for i, spec in enumerate(config.conv_layers, start=1):
        (out_size, _, _) = conv3d_output_shape((size,) * 3, spec.kernel)
        voxels = out_size**3
        mac = 2.0 * voxels * spec.out_channels * channels * spec.kernel**3
        params = spec.kernel**3 * channels * spec.out_channels + spec.out_channels
        costs.append(
            LayerCost(
                name=f"conv{i}",
                kind="conv",
                output_shape=(spec.out_channels, out_size, out_size, out_size),
                params=params,
                fwd_flops=mac,
                # First layer: the input volume needs no gradient.
                bwd_data_flops=0.0 if i == 1 else mac,
                bwd_weight_flops=mac,
            )
        )
        elems = voxels * spec.out_channels
        costs.append(
            LayerCost(
                name=f"lrelu_conv{i}",
                kind="activation",
                output_shape=(spec.out_channels, out_size, out_size, out_size),
                params=0,
                fwd_flops=float(elems),
                bwd_data_flops=float(elems),
                bwd_weight_flops=0.0,
            )
        )
        size = out_size
        if spec.pool:
            (size, _, _) = pool3d_output_shape((out_size,) * 3, config.pool_kernel)
            pool_flops = float(size**3 * spec.out_channels * config.pool_kernel**3)
            costs.append(
                LayerCost(
                    name=f"pool{i}",
                    kind="pool",
                    output_shape=(spec.out_channels, size, size, size),
                    params=0,
                    fwd_flops=pool_flops,
                    bwd_data_flops=pool_flops,
                    bwd_weight_flops=0.0,
                )
            )
        channels = spec.out_channels

    flat = size**3 * channels
    costs.append(
        LayerCost(
            name="flatten",
            kind="flatten",
            output_shape=(flat,),
            params=0,
            fwd_flops=0.0,
            bwd_data_flops=0.0,
            bwd_weight_flops=0.0,
        )
    )
    prev = flat
    widths = list(config.fc_sizes) + [config.n_outputs]
    for j, width in enumerate(widths, start=1):
        mac = 2.0 * prev * width
        costs.append(
            LayerCost(
                name=f"fc{j}",
                kind="dense",
                output_shape=(width,),
                params=prev * width + width,
                fwd_flops=mac,
                bwd_data_flops=mac,
                bwd_weight_flops=mac,
            )
        )
        if j < len(widths) or config.output_activation:
            costs.append(
                LayerCost(
                    name=f"lrelu_fc{j}" if j < len(widths) else "lrelu_out",
                    kind="activation",
                    output_shape=(width,),
                    params=0,
                    fwd_flops=float(width),
                    bwd_data_flops=float(width),
                    bwd_weight_flops=0.0,
                )
            )
        prev = width
    return costs


def parameter_count(config: CosmoFlowConfig) -> int:
    """Total trainable parameters."""
    return int(sum(c.params for c in network_costs(config)))


def parameter_bytes(config: CosmoFlowConfig, itemsize: int = 4) -> int:
    """Model size in bytes — the allreduce message size (paper: 28.15 MB)."""
    return parameter_count(config) * itemsize


def compressed_message_bytes(
    config: CosmoFlowConfig, compression: str = "none", topk_fraction: float = 0.1
) -> float:
    """The allreduce wire bytes under gradient compression.

    The analytical ratios of :func:`repro.comm.compression
    .compression_ratio`: fp16 halves every element; top-k sends the
    kept fraction at 8 bytes (fp32 value + int32 index) per element.
    """
    from repro.comm.compression import compression_ratio

    return parameter_bytes(config) * compression_ratio(compression, topk_fraction)


def total_flops(config: CosmoFlowConfig) -> Dict[str, float]:
    """Aggregate flops per training sample (mini-batch 1).

    Returns keys ``fwd``, ``bwd_data``, ``bwd_weights``, ``total``, and
    ``conv_total`` (the Table I subset).
    """
    costs = network_costs(config)
    fwd = sum(c.fwd_flops for c in costs)
    bwd_d = sum(c.bwd_data_flops for c in costs)
    bwd_w = sum(c.bwd_weight_flops for c in costs)
    conv = sum(c.total_flops for c in costs if c.kind == "conv")
    return {
        "fwd": fwd,
        "bwd_data": bwd_d,
        "bwd_weights": bwd_w,
        "total": fwd + bwd_d + bwd_w,
        "conv_total": conv,
    }


def table1_rows(config: CosmoFlowConfig) -> List[Dict[str, float]]:
    """Table-I-shaped rows: per conv layer, the fwd/bww/bwd flops.

    The benchmark divides these by measured times to print the TF/s
    columns exactly as the paper does.
    """
    rows = []
    for c in network_costs(config):
        if c.kind != "conv":
            continue
        rows.append(
            {
                "layer": c.name,
                "fwd_flops": c.fwd_flops,
                "bww_flops": c.bwd_weight_flops,
                "bwd_flops": c.bwd_data_flops,
                "output_shape": c.output_shape,
                "params": c.params,
            }
        )
    return rows


def report(config: CosmoFlowConfig) -> str:
    """Human-readable audit of the network's static costs."""
    costs = network_costs(config)
    totals = total_flops(config)
    lines = [
        f"Network {config.name!r}: {parameter_count(config):,} parameters "
        f"({parameter_bytes(config) / 1e6:.2f} MB fp32)",
        f"{'layer':<14}{'out shape':<22}{'params':>10}{'fwd Gflop':>12}"
        f"{'bwd Gflop':>12}",
    ]
    for c in costs:
        if c.kind in ("activation", "flatten"):
            continue
        lines.append(
            f"{c.name:<14}{str(c.output_shape):<22}{c.params:>10,}"
            f"{c.fwd_flops / 1e9:>12.4f}"
            f"{(c.bwd_data_flops + c.bwd_weight_flops) / 1e9:>12.4f}"
        )
    lines.append(
        f"total per sample: {totals['total'] / 1e9:.2f} Gflop "
        f"(fwd {totals['fwd'] / 1e9:.2f}, bwd {(totals['bwd_data'] + totals['bwd_weights']) / 1e9:.2f})"
    )
    if config.name == "paper_128":
        lines.append(
            f"paper constants: {PAPER_TOTAL_FLOPS / 1e9:.2f} Gflop total, "
            f"{PAPER_PARAM_BYTES / 1e6:.2f} MB parameters "
            f"(ratio: flops {totals['total'] / PAPER_TOTAL_FLOPS:.3f}, "
            f"bytes {parameter_bytes(config) / PAPER_PARAM_BYTES:.3f})"
        )
    return "\n".join(lines)
