#!/usr/bin/env python
"""Multi-redshift training (the paper's Section VII-B extension).

"Extending the network to multiple redshift snapshots ... [is] now
within the reach": each training sample carries the same universe at
several epochs as input channels.  The growth *history* between
snapshots breaks parameter degeneracies a single snapshot leaves open
(e.g. ΩM controls how fast structure grows between z=1 and z=0, not
just its final amplitude).

This example trains the same network on z=0 only and on (z=0, z=1)
two-channel inputs and compares held-out performance.

Runtime: ~3 minutes.
"""

from dataclasses import replace

import numpy as np

from repro import (
    CosmoFlowModel,
    CosmoFlowOptimizer,
    EngineConfig,
    InMemoryData,
    LocalBackend,
    TrainingEngine,
)
from repro.core.metrics import relative_errors
from repro.core.optimizer import OptimizerConfig
from repro.core.topology import tiny_16
from repro.cosmo import SimulationConfig, build_arrays, train_val_test_split
from repro.utils.rng import new_rng


def train_and_score(volumes, targets, theta, per_sim, channels, label):
    (xtr, ytr, _), (xv, yv, _), (xte, yte, tte) = train_val_test_split(
        volumes, targets, theta, per_sim, val_fraction=0.08, test_fraction=0.12, rng=0
    )
    cfg = replace(tiny_16(), input_channels=channels, name=f"tiny16_{channels}ch")
    model = CosmoFlowModel(cfg, seed=0)
    optimizer = CosmoFlowOptimizer(
        model.parameter_arrays(), OptimizerConfig(eta0=2e-3, decay_steps=8 * len(xtr))
    )
    backend = LocalBackend(
        model,
        optimizer,
        InMemoryData(xtr, ytr, augment=True),
        val_data=InMemoryData(xv, yv),
        rng=new_rng(1),
    )
    hist = TrainingEngine(backend, EngineConfig(epochs=8)).run()
    summary = relative_errors(model.predict(xte), tte, names=model.space.names)
    pred = model.predict_normalized(xte)
    corr = {
        n: float(np.corrcoef(pred[:, i], yte[:, i])[0, 1])
        for i, n in enumerate(model.space.names)
    }
    print(f"\n{label}: final val loss {hist.val_loss[-1]:.4f}")
    print(f"  {summary}")
    print(f"  correlations: " + ", ".join(f"{k}={v:.2f}" for k, v in corr.items()))
    return summary, corr


def main() -> None:
    sim = SimulationConfig()
    print("simulating 120 universes at z=0 and z=1 (shared initial conditions)...")
    volumes2, targets, theta = build_arrays(120, sim, seed=33, redshifts=(0.0, 1.0))
    volumes1 = volumes2[:, :1]  # the z=0 channel alone

    s1, c1 = train_and_score(volumes1, targets, theta, 8, 1, "single snapshot (z=0)")
    s2, c2 = train_and_score(volumes2, targets, theta, 8, 2, "two snapshots (z=0, z=1)")

    print("\n--- effect of the second snapshot (relative error, lower is better) ---")
    for name in s1.names:
        a, b = s1.as_dict()[name], s2.as_dict()[name]
        print(f"  {name:>8}: z=0 only {a:.4f}  ->  z=0+z=1 {b:.4f}")


if __name__ == "__main__":
    main()
