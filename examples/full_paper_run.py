#!/usr/bin/env python
"""The flagship example: the paper's whole pipeline, end to end.

Runs every stage of the CosmoFlow system in order and prints a
reproduction summary:

1. simulate universes (MUSIC+pycola pipeline) and write TFRecord-style
   shards with a manifest;
2. audit the full 128³ network against the paper's published constants;
3. train with the paper's optimizer via the prefetch pipeline;
4. continue training data-parallel (Algorithm 2) on simulated ranks;
5. evaluate held-out universes (Figure 6 metric) against the
   statistical baseline;
6. reenact the 8192-node scaling study with the calibrated model.

Scale presets: ``--scale smoke`` (~1 min), ``small`` (default, ~4 min),
``large`` (~15 min, better science numbers).
"""

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import (
    CosmoFlowModel,
    CosmoFlowOptimizer,
    EngineConfig,
    InMemoryData,
    LocalBackend,
    SteppedBackend,
    TrainingEngine,
)
from repro.core.flops import parameter_bytes, parameter_count, total_flops
from repro.core.metrics import relative_errors
from repro.core.optimizer import OptimizerConfig
from repro.core.topology import paper_128, tiny_16
from repro.cosmo import SimulationConfig, StatisticalBaseline
from repro.io import PrefetchPipeline
from repro.io.manifest import load_simulation_dataset, write_simulation_dataset
from repro.perfmodel import FullScaleRun, cori_datawarp_machine, cori_lustre_machine
from repro.utils.rng import new_rng

SCALES = {
    "smoke": dict(sims=40, epochs=3),
    "small": dict(sims=150, epochs=8),
    "large": dict(sims=400, epochs=14),
}


def banner(text: str) -> None:
    print(f"\n{'=' * 68}\n{text}\n{'=' * 68}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument("--workdir", default=None, help="keep artifacts here")
    args = parser.parse_args()
    scale = SCALES[args.scale]
    t_start = time.time()

    # -- 1. data ---------------------------------------------------------------
    banner(f"1. simulation pipeline ({scale['sims']} universes)")
    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp())
    sim = SimulationConfig()
    manifest_path = write_simulation_dataset(
        workdir / "dataset", scale["sims"], sim, seed=101,
        val_fraction=0.08, test_fraction=0.12, samples_per_file=64,
    )
    manifest, datasets = load_simulation_dataset(workdir / "dataset")
    print(f"dataset: {manifest['splits']} sub-volumes of "
          f"{manifest['subvolume_size']}^3 at {manifest_path.parent}")

    # -- 2. network audit --------------------------------------------------------
    banner("2. full 128^3 network audit vs paper constants")
    cfg = paper_128()
    print(f"parameters: {parameter_count(cfg):,} "
          f"({parameter_bytes(cfg) / 1e6:.2f} MB; paper ~7.04M / 28.15 MB)")
    print(f"flops/sample: {total_flops(cfg)['total'] / 1e9:.2f} G (paper 69.33 G)")

    # -- 3. single-process training via the I/O pipeline ---------------------------
    banner("3. training (prefetch pipeline, Adam+LARC+poly decay, augmentation)")
    xtr, ytr = datasets["train"].to_arrays()
    xv, yv = datasets["val"].to_arrays()
    train = InMemoryData(xtr, ytr, augment=True)
    # demonstrate the pipeline protocol on the first epoch's worth of I/O
    pipe = PrefetchPipeline(datasets["train"], n_io_threads=4, buffer_size=8)
    n_piped = sum(len(x) for x, _ in pipe.batches(8, rng=np.random.default_rng(0)))
    print(f"prefetch pipeline delivered {n_piped} samples "
          f"(consumer waited {pipe.stats.consumer_wait_s * 1e3:.0f} ms)")

    model = CosmoFlowModel(tiny_16(), seed=0)
    optimizer = CosmoFlowOptimizer(
        model.parameter_arrays(),
        OptimizerConfig(eta0=2e-3, decay_steps=scale["epochs"] * len(train)),
    )
    backend = LocalBackend(
        model, optimizer, train, val_data=InMemoryData(xv, yv), rng=new_rng(1)
    )
    engine = TrainingEngine(backend, EngineConfig(epochs=scale["epochs"]))
    hist = engine.run()
    print(f"val loss: {hist.val_loss[0]:.4f} -> {hist.val_loss[-1]:.4f} "
          f"over {scale['epochs']} epochs; "
          f"{engine.throughput()['samples_per_sec']:.0f} samples/s")

    # -- 4. data-parallel training -------------------------------------------------
    banner("4. synchronous data-parallel training (Algorithm 2, 16 ranks)")
    dist = TrainingEngine(
        SteppedBackend(
            tiny_16(),
            train,
            optimizer_config=OptimizerConfig(eta0=2e-3, decay_steps=10_000),
            n_ranks=16,
        ),
        EngineConfig(epochs=1, validate=False),
    )
    dist.run()
    print(f"1 epoch at global batch 16: mean step loss "
          f"{dist.history.train_loss[0]:.4f}; "
          f"{dist.group_stats['reductions']} gradient allreduces, "
          f"{dist.group_stats['bytes_reduced'] / 1e6:.0f} MB moved")

    # -- 5. science evaluation -------------------------------------------------------
    banner("5. held-out parameter estimation (Figure 6 metric)")
    xte, yte = datasets["test"].to_arrays()
    tte = model.space.denormalize(yte)
    cnn = relative_errors(model.predict(xte), tte, names=model.space.names)
    baseline = StatisticalBaseline(box_size=sim.box_size / sim.splits)
    ttr = model.space.denormalize(ytr)
    baseline.fit(xtr, ttr)
    stats = relative_errors(baseline.predict(xte), tte, names=model.space.names)
    prior = relative_errors(
        model.space.denormalize(np.tile(ytr.mean(axis=0), (len(xte), 1))),
        tte, names=model.space.names,
    )
    print(f"{'parameter':<10}{'CNN':>9}{'statistics':>12}{'prior':>9}")
    for name in model.space.names:
        print(f"{name:<10}{cnn.as_dict()[name]:>9.4f}"
              f"{stats.as_dict()[name]:>12.4f}{prior.as_dict()[name]:>9.4f}")
    print("(paper at 99k samples of 128^3: omega_m 0.0022, sigma_8 0.0094, "
          "n_s 0.0096)")

    # -- 6. scaling study --------------------------------------------------------------
    banner("6. scaling study (calibrated cluster model)")
    bb, lustre = cori_datawarp_machine(), cori_lustre_machine()
    for n in (128, 1024, 8192):
        print(f"{n:>5} nodes: burst buffer {bb.efficiency(n) * 100:3.0f}% | "
              f"Lustre {lustre.efficiency(n) * 100:3.0f}%")
    run = FullScaleRun(bb, seed=1).run()
    print(f"flagship run: {run.mean_epoch_s:.2f} +- {run.std_epoch_s:.2f} s/epoch, "
          f"{run.sustained_pflops:.2f} Pflop/s, "
          f"{run.parallel_efficiency * 100:.0f}% efficiency "
          f"(paper: 3.35 +- 0.32 s, ~3.5 Pflop/s, 77%)")

    print(f"\ntotal wall time: {(time.time() - t_start) / 60:.1f} min")


if __name__ == "__main__":
    main()
