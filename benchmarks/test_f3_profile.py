"""Figure 3 — single-node time breakdown.

The paper profiles one KNL node mid-training and attributes wall time
to: 3D convolutions, non-convolutional compute, the CPE ML Plugin,
TensorFlow framework time, and other/kernel time, across the master,
worker and communication threads.

We reproduce the software-level breakdown: a single-rank training run
(with the plugin enabled, exactly as the paper's single-node profile)
whose stages are timed — convolution kernels separately from the rest
of compute, via a timing-wrapped kernel registry — and printed as the
Figure 3 fractions.
"""

import numpy as np
import pytest

from benchmarks.conftest import save_report
from repro.comm.plugin import MLPlugin
from repro.comm.serial import SerialCommunicator
from repro.core.engine import EngineConfig, LocalBackend, TrainingEngine
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer
from repro.core.topology import scaled_32
from repro.core.trainer import InMemoryData
from repro.primitives import registry
from repro.primitives.registry import ConvImpl
from repro.utils.timer import StageTimer


@pytest.fixture()
def timed_registry(monkeypatch):
    """Wrap the kernels with timers, like VTune attributing time to the
    MKL-DNN hotspots."""
    timer = StageTimer()
    base = registry.GEMM

    def wrap(fn, stage):
        def inner(*args, **kwargs):
            with timer.stage(stage):
                return fn(*args, **kwargs)

        return inner

    monkeypatch.setattr(registry, "GEMM", ConvImpl(
        name="timed",
        forward=wrap(base.forward, "conv3d"),
        backward_data=wrap(base.backward_data, "conv3d"),
        backward_weights=wrap(base.backward_weights, "conv3d"),
        pack=wrap(base.pack, "conv3d"),
        backward=wrap(base.backward, "conv3d"),
    ))
    return timer


def test_single_node_profile(timed_registry, benchmark):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((12, 1, 32, 32, 32)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(12, 3)).astype(np.float32)
    model = CosmoFlowModel(scaled_32(), seed=0)
    timer = StageTimer()
    backend = LocalBackend(
        model,
        CosmoFlowOptimizer(model.parameter_arrays()),
        InMemoryData(x, y),
        aggregator=MLPlugin(SerialCommunicator()).init(),  # paper: plugin on even at 1 node
        timer=timer,
    )
    engine = TrainingEngine(backend, EngineConfig(epochs=1, validate=False))
    benchmark.pedantic(engine.run, args=(1,), rounds=1, iterations=1)

    conv_time = timed_registry.stages["conv3d"].total
    stages = timer.stages
    compute = stages["compute"].total
    non_conv = max(0.0, compute - conv_time)
    rows = {
        "3D convolutions (MKL-DNN analogue)": conv_time,
        "non-conv compute (elementwise, FC, loss)": non_conv,
        "CPE ML Plugin (gradient aggregation)": stages.get("comm").total if "comm" in stages else 0.0,
        "optimizer (Adam+LARC update)": stages["optimizer"].total,
        "I/O (sample fetch)": stages["io"].total,
        "framework/other": stages.get("other").total if "other" in stages else 0.0,
    }
    total = sum(rows.values())
    lines = [
        "Figure 3 reproduction: single-node training time breakdown",
        f"(one rank, plugin enabled, {len(x)} steps of scaled_32)",
        f"{'stage':<44}{'time ms':>10}{'fraction':>10}",
    ]
    for name, t in sorted(rows.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:<44}{t * 1e3:>10.1f}{t / total * 100:>9.1f}%")
    lines += [
        f"{'total':<44}{total * 1e3:>10.1f}",
        "",
        "paper (Fig. 3, KNL): 3D convolutions dominate the worker threads;"
        " element-wise ops, framework overhead and OpenMP spin fill the rest;"
        " plugin threads mostly spin at a single node.",
    ]
    save_report("f3_profile", "\n".join(lines))

    # The paper's qualitative result: convolutions dominate compute.
    assert conv_time > non_conv
    assert conv_time / total > 0.4
