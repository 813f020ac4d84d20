"""Tests for the numerical-health watchdog (NaN/Inf rollback + LR cut)."""

import math

import numpy as np
import pytest

from repro.core.engine import (
    Callback,
    EngineConfig,
    LocalBackend,
    ThreadedBackend,
    TrainingEngine,
)
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer, OptimizerConfig
from repro.core.topology import tiny_16
from repro.core.trainer import InMemoryData
from repro.core.watchdog import NumericalHealthError, NumericalHealthWatchdog

OPT = OptimizerConfig(eta0=5e-3, decay_steps=50)


def make_dataset(n=4, seed=0, size=16):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, size, size, size)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(n, 3)).astype(np.float32)
    return InMemoryData(x, y)


def local_engine(epochs, callbacks, eta0=5e-3, n=4):
    model = CosmoFlowModel(tiny_16(), seed=0)
    optimizer = CosmoFlowOptimizer(
        model.parameter_arrays(), OptimizerConfig(eta0=eta0, decay_steps=50)
    )
    backend = LocalBackend(model, optimizer, make_dataset(n))
    engine = TrainingEngine(
        backend,
        config=EngineConfig(epochs=epochs, validate=False),
        callbacks=callbacks,
    )
    return engine, model, optimizer


class PoisonOnce(Callback):
    """Corrupts the model's parameters once, at a chosen step."""

    def __init__(self, epoch, step):
        self.epoch = epoch
        self.step = step
        self.fired = False

    def on_step_end(self, rc):
        if not self.fired and rc.epoch == self.epoch and rc.step == self.step:
            self.fired = True
            flat = rc.model.get_flat_parameters()
            flat[:8] = np.nan
            rc.model.set_flat_parameters(flat)


class TestValidation:
    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            NumericalHealthWatchdog(tmp_path, lr_cut=0.0)
        with pytest.raises(ValueError):
            NumericalHealthWatchdog(tmp_path, lr_cut=1.5)
        with pytest.raises(ValueError):
            NumericalHealthWatchdog(tmp_path, max_rollbacks=-1)
        with pytest.raises(ValueError):
            NumericalHealthWatchdog(tmp_path, keep_last=0)


class TestRollback:
    def test_nan_poison_is_rolled_back_and_training_recovers(self, tmp_path):
        wd = NumericalHealthWatchdog(tmp_path, lr_cut=0.5, max_rollbacks=2)
        poison = PoisonOnce(epoch=1, step=0)
        engine, model, optimizer = local_engine(4, [poison, wd])
        hist = engine.run()
        assert poison.fired
        assert wd.rollbacks == 1
        # The poisoned epoch's mean loss is NaN; the watchdog rolled the
        # model back to the end-of-epoch-0 snapshot and training
        # finished with finite numbers and a halved LR.
        assert math.isnan(hist.train_loss[1])
        assert math.isfinite(hist.train_loss[-1])
        assert len(hist.train_loss) == 4
        assert optimizer.lr_scale == 0.5
        assert np.all(np.isfinite(model.get_flat_parameters()))

    def test_lr_scale_cuts_compound(self, tmp_path):
        wd = NumericalHealthWatchdog(tmp_path, lr_cut=0.5, max_rollbacks=3)
        poisons = [PoisonOnce(epoch=1, step=0), PoisonOnce(epoch=2, step=0)]
        engine, _, optimizer = local_engine(5, [*poisons, wd])
        engine.run()
        assert wd.rollbacks == 2
        assert optimizer.lr_scale == 0.25

    def test_first_epoch_divergence_uses_baseline_snapshot(self, tmp_path):
        """on_run_start's baseline snapshot is the rollback target when
        the very first epoch goes bad."""
        wd = NumericalHealthWatchdog(tmp_path, lr_cut=0.5, max_rollbacks=1)
        poison = PoisonOnce(epoch=0, step=0)
        engine, model, _ = local_engine(3, [poison, wd])
        hist = engine.run()
        assert wd.rollbacks == 1
        assert math.isfinite(hist.train_loss[-1])
        assert np.all(np.isfinite(model.get_flat_parameters()))

    # Driven to inf/nan on purpose: the kernels' overflow warnings are the
    # point of the test, not a leak (tier-1 turns RuntimeWarning into errors).
    @pytest.mark.filterwarnings(
        "ignore:overflow encountered:RuntimeWarning",
        "ignore:invalid value encountered:RuntimeWarning",
    )
    def test_retry_budget_exhaustion_aborts_with_typed_error(self, tmp_path):
        """Real divergence: an absurd LR blows the loss up every epoch;
        after max_rollbacks the watchdog aborts cleanly."""
        wd = NumericalHealthWatchdog(tmp_path, lr_cut=1.0, max_rollbacks=1)
        engine, _, _ = local_engine(6, [wd], eta0=1e12)
        with pytest.raises(NumericalHealthError, match="still diverging"):
            engine.run()

    def test_snapshot_retention_is_pruned(self, tmp_path):
        wd = NumericalHealthWatchdog(tmp_path, keep_last=2)
        engine, _, _ = local_engine(5, [wd])
        engine.run()
        assert len(list(tmp_path.glob("*.npz"))) == 2

    def test_healthy_run_is_untouched(self, tmp_path):
        wd = NumericalHealthWatchdog(tmp_path)
        engine, _, optimizer = local_engine(3, [wd])
        ref_engine, _, _ = local_engine(3, [])
        hist = engine.run()
        ref = ref_engine.run()
        assert hist.train_loss == ref.train_loss  # bitwise
        assert wd.rollbacks == 0
        assert optimizer.lr_scale == 1.0


class TestThreadedLockstep:
    def test_all_ranks_roll_back_in_lockstep(self, tmp_path):
        """Post-aggregation loss is identical on every rank, so each
        rank takes the same rollback decision without extra collectives
        and the replicas stay bitwise identical afterwards."""
        wd = NumericalHealthWatchdog(tmp_path, lr_cut=0.5, max_rollbacks=2)

        class PoisonAllRanks(Callback):
            def on_step_end(self, rc):
                if rc.epoch == 1 and rc.step == 0:
                    flat = rc.model.get_flat_parameters()
                    flat[:8] = np.nan
                    rc.model.set_flat_parameters(flat)

        backend = ThreadedBackend(
            tiny_16(),
            make_dataset(8),
            optimizer_config=OPT,
            n_ranks=2,
        )
        engine = TrainingEngine(
            backend,
            config=EngineConfig(epochs=4, validate=False),
            callbacks=[PoisonAllRanks(), wd],
        )
        hist = engine.run()
        assert len(hist.train_loss) == 4
        assert math.isfinite(hist.train_loss[-1])
        assert np.all(np.isfinite(engine.final_model.get_flat_parameters()))
