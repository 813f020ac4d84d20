"""Shared fixtures for the benchmark suite.

Each benchmark file regenerates one table or figure of the paper (see
DESIGN.md §4).  Expensive artifacts — the simulated dataset and a
trained model — are built once per session here and shared.

Run with::

    pytest benchmarks/ --benchmark-only -s

(``-s`` shows the printed reproduction tables; they are also written to
``benchmarks/results/``.)
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro import (
    CosmoFlowModel,
    CosmoFlowOptimizer,
    EngineConfig,
    InMemoryData,
    LocalBackend,
    TrainingEngine,
)
from repro.core.optimizer import OptimizerConfig
from repro.core.topology import tiny_16
from repro.cosmo import SimulationConfig, build_arrays, train_val_test_split
from repro.utils.rng import new_rng

RESULTS_DIR = Path(__file__).parent / "results"


def save_report(name: str, text: str) -> None:
    """Print a reproduction table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{'=' * 72}\n{text}\n{'=' * 72}")


@pytest.fixture(scope="session")
def cosmo_dataset():
    """Simulated dataset shared by the science benchmarks (F5/F6/E6):
    150 universes -> 1200 sub-volumes of 16^3 (the paper's geometry at
    1/8 linear scale: 64^3 particles -> 32^3 histogram = 8 particles
    per voxel, split 2x2x2)."""
    sim = SimulationConfig()
    volumes, targets, theta = build_arrays(150, sim, seed=101)
    train, val, test = train_val_test_split(
        volumes, targets, theta, sim.subvolumes_per_sim,
        val_fraction=0.08, test_fraction=0.12, rng=0,
    )
    return {"sim": sim, "train": train, "val": val, "test": test}


@pytest.fixture(scope="session")
def trained_model(cosmo_dataset):
    """A CosmoFlow model trained on the shared dataset (used by F6/E6)."""
    xtr, ytr, _ = cosmo_dataset["train"]
    xv, yv, _ = cosmo_dataset["val"]
    model = CosmoFlowModel(tiny_16(), seed=0)
    optimizer = CosmoFlowOptimizer(
        model.parameter_arrays(),
        OptimizerConfig(eta0=2e-3, eta_min=1e-4, decay_steps=8 * len(xtr)),
    )
    backend = LocalBackend(
        model,
        optimizer,
        # isotropy augmentation (48 cube symmetries): the regularizer
        # that lets a small training set constrain the 3D CNN
        InMemoryData(xtr, ytr, augment=True),
        val_data=InMemoryData(xv, yv),
        rng=new_rng(1),
    )
    engine = TrainingEngine(backend, EngineConfig(epochs=8))
    history = engine.run()
    return {"model": model, "history": history, "engine": engine}
