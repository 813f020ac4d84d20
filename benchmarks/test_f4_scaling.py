"""Figure 4 — scaling of fully synchronous training.

Left plot: Cori with training data on the DataWarp burst buffer,
1 -> 8192 nodes, 77% parallel efficiency at 8192.  Right plot (zoomed):
the same run with data on Lustre (knee past 512 nodes, <58% at 1024)
and Piz Daint on its Lustre (44% at 512), plus the dummy-data
diagnostic that isolates I/O as the cause.

Regenerated with the calibrated cluster model; a real threaded-rank
measurement at small scale accompanies it.
"""

import numpy as np
import pytest

from benchmarks.conftest import save_report
from repro.perfmodel import (
    cori_datawarp_machine,
    cori_lustre_machine,
    pizdaint_lustre_machine,
)

NODES = [1, 64, 128, 256, 512, 1024, 2048, 4096, 8192]

#: Figure 4 anchor points the paper states numerically.
PAPER_ANCHORS = {
    "bb_8192_eff": 0.77,
    "bb_8192_speedup": 6324,
    "lustre_1024_eff": 0.58,
    "pizdaint_512_eff": 0.44,
}


@pytest.fixture(scope="module")
def machines():
    kw = dict(straggler_exposure=0.0)  # deterministic mean curves
    return {
        "cori_bb": cori_datawarp_machine(**kw),
        "cori_lustre": cori_lustre_machine(**kw),
        "pizdaint_lustre": pizdaint_lustre_machine(**kw),
        "cori_lustre_dummy": cori_lustre_machine(filesystem=None, **kw),
    }


def test_figure4_scaling(machines, benchmark):
    sweeps = benchmark.pedantic(
        lambda: {name: m.sweep(NODES) for name, m in machines.items()},
        rounds=3,
        iterations=1,
    )

    lines = [
        "Figure 4 reproduction: scaling of fully synchronous training",
        f"{'nodes':>6}{'BB speedup':>12}{'BB eff':>8}{'Lustre eff':>12}"
        f"{'PizDaint eff':>14}{'dummy-data eff':>16}",
    ]
    for i, n in enumerate(NODES):
        lines.append(
            f"{n:>6}{sweeps['cori_bb'][i].speedup:>11.0f}x"
            f"{sweeps['cori_bb'][i].efficiency * 100:>7.0f}%"
            f"{sweeps['cori_lustre'][i].efficiency * 100:>11.0f}%"
            f"{sweeps['pizdaint_lustre'][i].efficiency * 100:>13.0f}%"
            f"{sweeps['cori_lustre_dummy'][i].efficiency * 100:>15.0f}%"
        )
    lines += [
        "",
        f"paper anchors: BB 77% / 6324x at 8192; Cori Lustre <58% at 1024; "
        f"Piz Daint Lustre 44% at 512; dummy data removes the Lustre drop",
    ]
    save_report("f4_scaling", "\n".join(lines))

    bb = {p.n_nodes: p for p in sweeps["cori_bb"]}
    lu = {p.n_nodes: p for p in sweeps["cori_lustre"]}
    pd = {p.n_nodes: p for p in sweeps["pizdaint_lustre"]}
    dummy = {p.n_nodes: p for p in sweeps["cori_lustre_dummy"]}

    assert bb[8192].efficiency == pytest.approx(PAPER_ANCHORS["bb_8192_eff"], abs=0.02)
    assert bb[8192].speedup == pytest.approx(PAPER_ANCHORS["bb_8192_speedup"], rel=0.03)
    assert lu[1024].efficiency == pytest.approx(PAPER_ANCHORS["lustre_1024_eff"], abs=0.02)
    assert pd[512].efficiency == pytest.approx(PAPER_ANCHORS["pizdaint_512_eff"], abs=0.03)
    # crossover structure: Lustre tracks BB at small scale, collapses later
    assert lu[128].efficiency < bb[128].efficiency
    assert lu[1024].efficiency < bb[1024].efficiency - 0.15
    # dummy data (no filesystem) restores scaling — the paper's diagnostic
    assert dummy[1024].efficiency > lu[1024].efficiency + 0.15


def test_real_thread_scaling(benchmark):
    """Measured SSGD over real rank threads (not the model)."""
    from repro.core.engine import EngineConfig, ThreadedBackend, TrainingEngine
    from repro.core.optimizer import OptimizerConfig
    from repro.core.topology import tiny_16
    from repro.core.trainer import InMemoryData
    import time

    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 1, 16, 16, 16)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(16, 3)).astype(np.float32)
    data = InMemoryData(x, y)

    def run(ranks):
        backend = ThreadedBackend(
            tiny_16(), data, optimizer_config=OptimizerConfig(), n_ranks=ranks
        )
        engine = TrainingEngine(backend, EngineConfig(epochs=1, validate=False))
        t0 = time.perf_counter()
        engine.run()
        return engine.metrics.value("engine.records") / (time.perf_counter() - t0)

    throughput = {r: run(r) for r in (1, 2, 4)}
    benchmark.pedantic(run, args=(2,), rounds=1, iterations=1)
    lines = ["real threaded-rank SSGD throughput (this host):"]
    for r, tp in throughput.items():
        lines.append(f"  {r} ranks: {tp:6.1f} samples/s ({tp / throughput[1]:.2f}x)")
    save_report("f4_real_threads", "\n".join(lines))
    # Correctness at every rank count (throughput depends on host cores).
    assert all(tp > 0 for tp in throughput.values())
