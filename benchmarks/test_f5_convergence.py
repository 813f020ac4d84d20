"""Figure 5 — training/validation loss at two concurrency scales.

The paper trains the same problem on 2048 and 8192 nodes (global batch
= node count, mini-batch 1 per rank) and shows the 2048-node run
"clearly converges with fewer number of epochs": larger global batches
take more epochs at fixed hyperparameters (Section V-D / VII-A).

We run the identical synchronous-SGD algebra over simulated ranks at a
4x rank ratio (the paper's 2048:8192), on real simulated-universe data,
and print both loss curves.
"""

import numpy as np
import pytest

from benchmarks.conftest import save_report
from repro.core.engine import EngineConfig, SteppedBackend, TrainingEngine
from repro.core.optimizer import OptimizerConfig
from repro.core.topology import tiny_16
from repro.core.trainer import InMemoryData

#: Scaled rank counts: a 16x ratio (the paper's is 4x, over ~40x more
#: epochs) makes the per-epoch gap visible within the couple of epochs
#: a benchmark can afford — the phenomenon is the same: global batch =
#: rank count, and bigger batches mean fewer optimizer steps per epoch.
SMALL_RANKS, LARGE_RANKS = 8, 128
EPOCHS = 2


@pytest.fixture(scope="module")
def loss_curves(cosmo_dataset):
    xtr, ytr, _ = cosmo_dataset["train"]
    xv, yv, _ = cosmo_dataset["val"]
    train = InMemoryData(xtr, ytr, augment=True)
    val = InMemoryData(xv, yv)

    def run(ranks):
        backend = SteppedBackend(
            tiny_16(),
            train,
            val_data=val,
            optimizer_config=OptimizerConfig(eta0=2e-3, decay_steps=10_000),
            n_ranks=ranks,
        )
        engine = TrainingEngine(backend, EngineConfig(epochs=EPOCHS))
        engine.run()
        # Figure 5's y-axis is the loss of the *current* model; measure
        # the final model on the full training set for a noise-free
        # end-of-run comparison too.
        model = engine.final_model
        final = float(
            np.mean([model.validation_loss(x, y) for x, y in train.batches(8, shuffle=False)])
        )
        return engine.history, final

    return {SMALL_RANKS: run(SMALL_RANKS), LARGE_RANKS: run(LARGE_RANKS)}


def test_figure5_convergence(loss_curves, benchmark, cosmo_dataset):
    xtr, ytr, _ = cosmo_dataset["train"]
    benchmark.pedantic(
        lambda: TrainingEngine(
            SteppedBackend(
                tiny_16(),
                InMemoryData(xtr[:64], ytr[:64]),
                optimizer_config=OptimizerConfig(),
                n_ranks=16,
            ),
            EngineConfig(epochs=1, validate=False),
        ).run(),
        rounds=1,
        iterations=1,
    )

    (small, small_final) = loss_curves[SMALL_RANKS]
    (large, large_final) = loss_curves[LARGE_RANKS]
    lines = [
        "Figure 5 reproduction: loss vs epoch at two global batch sizes",
        f"(ranks scaled {SMALL_RANKS} vs {LARGE_RANKS}; the paper compares "
        f"2048 vs 8192; mini-batch 1 per rank)",
        f"{'epoch':>6}{f'{SMALL_RANKS}-rank train':>16}{f'{SMALL_RANKS}-rank val':>15}"
        f"{f'{LARGE_RANKS}-rank train':>16}{f'{LARGE_RANKS}-rank val':>15}",
    ]
    for e in range(EPOCHS):
        lines.append(
            f"{e + 1:>6}{small.train_loss[e]:>16.4f}{small.val_loss[e]:>15.4f}"
            f"{large.train_loss[e]:>16.4f}{large.val_loss[e]:>15.4f}"
        )
    lines += [
        f"\nfinal-model loss on the full training set: "
        f"{SMALL_RANKS}-rank {small_final:.4f} vs {LARGE_RANKS}-rank {large_final:.4f}",
        "paper: 'The network clearly converges with fewer number of epochs "
        "in the 2048-node run.'",
    ]
    save_report("f5_convergence", "\n".join(lines))

    # The Figure 5 shape: after the same number of epochs, the
    # smaller-global-batch run is further along (it took 16x more
    # optimizer steps over the same data).
    assert small_final < large_final
    assert small.train_loss[0] < large.train_loss[0]  # ahead from epoch 1
    # Both runs are actually learning.
    assert small_final < 0.8 * small.train_loss[0]
    assert large.train_loss[-1] < large.train_loss[0]
