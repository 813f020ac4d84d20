"""Tests for fully synchronous data-parallel training (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.engine import (
    EngineConfig,
    SteppedBackend,
    ThreadedBackend,
    TrainingEngine,
    steps_per_epoch,
)
from repro.core.optimizer import OptimizerConfig
from repro.core.process_backend import ProcessBackend
from repro.core.stale_backend import StaleBackend
from repro.core.topology import tiny_16
from tests.contract import dataset


OPT = OptimizerConfig(eta0=5e-3, decay_steps=50)


def group_engine(backend_cls, data, n_ranks, epochs, seed=0, validate=False, **kwargs):
    backend = backend_cls(tiny_16(), data, optimizer_config=OPT, n_ranks=n_ranks, **kwargs)
    return TrainingEngine(backend, EngineConfig(epochs=epochs, seed=seed, validate=validate))


class TestConfig:
    def test_bad_ranks(self):
        with pytest.raises(ValueError):
            SteppedBackend(tiny_16(), dataset(4), n_ranks=0)

    @pytest.mark.parametrize(
        "backend_cls",
        [SteppedBackend, ThreadedBackend, ProcessBackend, StaleBackend],
    )
    def test_dataset_smaller_than_ranks_raises(self, backend_cls):
        """At construction, for every group backend — not as "dataset
        is empty" from a shard once the ranks are running."""
        with pytest.raises(ValueError, match="cannot feed 4 ranks .*target concurrency"):
            backend_cls(tiny_16(), dataset(2), n_ranks=4)

    def test_steps_per_epoch(self):
        data = dataset(10)
        assert steps_per_epoch(data, 3, 1) == 3  # floor(10 / 3), paper's N/k
        assert steps_per_epoch(data, 3, 2) == 2  # one pass over a 3-sample shard
        assert steps_per_epoch(data, 1, 4) == 3


class TestSteppedMode:
    def test_trains_and_converges(self):
        hist = group_engine(SteppedBackend, dataset(8), 4, 6).run()
        assert len(hist.train_loss) == 6
        assert hist.train_loss[-1] < hist.train_loss[0]

    def test_validation(self):
        engine = group_engine(
            SteppedBackend, dataset(4), 2, 2, validate=True, val_data=dataset(2, seed=7)
        )
        hist = engine.run()
        assert all(np.isfinite(v) for v in hist.val_loss)

    def test_group_stats_recorded(self):
        engine = group_engine(SteppedBackend, dataset(4), 2, 1)
        engine.run()
        assert engine.group_stats["reductions"] == steps_per_epoch(engine.backend.train_data, 2, 1)
        assert engine.group_stats["bytes_reduced"] > 0

    def test_final_model_available(self):
        engine = group_engine(SteppedBackend, dataset(4), 2, 1)
        with pytest.raises(RuntimeError):
            _ = engine.final_model
        engine.run()
        assert engine.final_model.num_parameters > 0

    def test_one_rank_reduces_to_serial_sgd(self):
        """k=1 distributed trains like plain single-process SGD (the
        bitwise statement is the contract's engine line)."""
        hist = group_engine(SteppedBackend, dataset(4), 1, 2).run()
        assert hist.train_loss[-1] < hist.train_loss[0]


class TestThreadedMode:
    def test_trains_and_checks_divergence(self):
        engine = group_engine(
            ThreadedBackend, dataset(6), 3, 2, validate=True, val_data=dataset(2, seed=5)
        )
        hist = engine.run()
        assert len(hist.train_loss) == 2
        assert engine.group_stats["max_param_divergence"] <= 1e-5
        assert engine.final_model is not None

    def test_threaded_matches_stepped(self):
        """The two execution modes end on the same bits at a seed other
        than the contract's."""
        data = dataset(6, seed=3)
        stepped = group_engine(SteppedBackend, data, 3, 2, seed=1)
        threaded = group_engine(ThreadedBackend, data, 3, 2, seed=1)
        h1 = stepped.run()
        h2 = threaded.run()
        assert h1.train_loss == h2.train_loss
        np.testing.assert_array_equal(
            stepped.final_model.get_flat_parameters(),
            threaded.final_model.get_flat_parameters(),
        )


class TestBatchSizeEffect:
    def test_larger_global_batch_converges_slower_per_epoch(self):
        """The Figure 5 phenomenon: more ranks (larger global batch)
        means fewer, larger steps per epoch and slower per-epoch
        convergence at fixed hyperparameters."""
        data = dataset(32, seed=2)

        def loss_after(n_ranks):
            backend = SteppedBackend(
                tiny_16(),
                data,
                optimizer_config=OptimizerConfig(eta0=2e-3, decay_steps=1000),
                n_ranks=n_ranks,
            )
            engine = TrainingEngine(backend, EngineConfig(epochs=4, validate=False))
            return engine.run().train_loss[-1]

        assert loss_after(2) < loss_after(16)
