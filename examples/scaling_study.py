#!/usr/bin/env python
"""Scaling study: regenerate the shape of the paper's Figure 4.

Uses the calibrated cluster model (compute from the measured 535/388
Gflop/s node rates, communication from the measured plugin bandwidths,
I/O from the Lustre/DataWarp models) to sweep 1 -> 8192 nodes on the
three machine configurations the paper measures, then reenacts the
full-scale 8192-node run of Section V-D.

Also runs a real (not modeled) thread-scaling measurement of
synchronous data-parallel training at small rank counts.

Runtime: ~30 seconds.
"""

import time

import numpy as np

from repro.perfmodel import (
    FullScaleRun,
    cori_datawarp_machine,
    cori_lustre_machine,
    pizdaint_lustre_machine,
)

NODE_COUNTS = [1, 64, 128, 256, 512, 1024, 2048, 4096, 8192]


def sweep_table() -> None:
    machines = {
        "Cori burst buffer": cori_datawarp_machine(),
        "Cori Lustre": cori_lustre_machine(),
        "Piz Daint Lustre": pizdaint_lustre_machine(),
    }
    print(f"{'nodes':>6}", end="")
    for name in machines:
        print(f"  {name + ' eff':>22}", end="")
    print()
    for n in NODE_COUNTS:
        print(f"{n:>6}", end="")
        for model in machines.values():
            print(f"  {model.speedup(n):>13.0f}x ({model.efficiency(n) * 100:4.0f}%)", end="")
        print()
    print("\npaper anchors: burst buffer 77% at 8192 (6324x); Cori Lustre <58% "
          "at 1024; Piz Daint Lustre 44% at 512")


def full_scale() -> None:
    print("\n--- full-scale run reenactment (8192 nodes, 130 epochs) ---")
    run = FullScaleRun(cori_datawarp_machine(), seed=1).run()
    print(f"epoch time: {run.mean_epoch_s:.2f} +- {run.std_epoch_s:.2f} s "
          f"(paper: 3.35 +- 0.32 s)")
    print(f"training time: {run.training_time_s / 60:.1f} min (paper: ~8 min)")
    print(f"sustained: {run.sustained_pflops:.2f} Pflop/s (paper: ~3.5)")
    print(f"parallel efficiency: {run.parallel_efficiency * 100:.0f}% (paper: 77%)")


def real_thread_scaling() -> None:
    """Measured (not modeled) SSGD throughput across real rank threads."""
    from repro.core.engine import EngineConfig, ThreadedBackend, TrainingEngine
    from repro.core.optimizer import OptimizerConfig
    from repro.core.trainer import InMemoryData
    from repro.core.topology import tiny_16

    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 1, 16, 16, 16)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(16, 3)).astype(np.float32)
    data = InMemoryData(x, y)
    print("\n--- real threaded-rank scaling (this machine) ---")
    base = None
    for ranks in (1, 2, 4):
        backend = ThreadedBackend(
            tiny_16(), data, optimizer_config=OptimizerConfig(), n_ranks=ranks
        )
        engine = TrainingEngine(backend, EngineConfig(epochs=1, validate=False))
        t0 = time.perf_counter()
        engine.run()
        elapsed = time.perf_counter() - t0
        processed = engine.metrics.value("engine.records")
        throughput = processed / elapsed
        if base is None:
            base = throughput
        print(f"{ranks} ranks: {throughput:6.1f} samples/s "
              f"(speedup {throughput / base:.2f}x)")
    print("(NumPy releases the GIL in BLAS, but a single-CPU container "
          "serializes compute; on multicore hosts this scales)")


def main() -> None:
    sweep_table()
    full_scale()
    real_thread_scaling()


if __name__ == "__main__":
    main()
