"""Tests for in-memory data, augmentation, and single-process training
through ``TrainingEngine(LocalBackend)``."""

import numpy as np
import pytest

from repro.comm.serial import SerialCommunicator
from repro.core.engine import EngineConfig, LocalBackend, TrainingEngine
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer, OptimizerConfig
from repro.core.topology import tiny_16
from repro.core.trainer import InMemoryData, random_cube_symmetry
from repro.utils.rng import new_rng


def make_dataset(n=8, seed=0, size=16):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, size, size, size)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(n, 3)).astype(np.float32)
    return InMemoryData(x, y)


def local_engine(model, data, config, opt=None, **backend_kwargs):
    """Single-process engine; ``opt=None`` decays over the whole run."""
    opt = opt or OptimizerConfig(decay_steps=max(1, config.epochs * len(data)))
    optimizer = CosmoFlowOptimizer(model.parameter_arrays(), opt)
    backend = LocalBackend(
        model, optimizer, data, rng=new_rng(config.seed), **backend_kwargs
    )
    return TrainingEngine(backend, config)


class TestInMemoryData:
    def test_len(self):
        assert len(make_dataset(5)) == 5

    def test_batches_cover_all(self):
        data = make_dataset(7)
        seen = sum(len(x) for x, _ in data.batches(2, shuffle=False))
        assert seen == 7

    def test_last_batch_short(self):
        sizes = [len(x) for x, _ in make_dataset(7).batches(3, shuffle=False)]
        assert sizes == [3, 3, 1]

    def test_shuffle_deterministic(self):
        data = make_dataset(8)
        a = [y for _, y in data.batches(1, rng=np.random.default_rng(1))]
        b = [y for _, y in data.batches(1, rng=np.random.default_rng(1))]
        np.testing.assert_array_equal(np.concatenate(a), np.concatenate(b))

    def test_no_shuffle_preserves_order(self):
        data = make_dataset(4)
        ys = np.concatenate([y for _, y in data.batches(1, shuffle=False)])
        np.testing.assert_array_equal(ys, data.y)

    def test_shard_partition(self):
        data = make_dataset(10)
        shards = [data.shard(r, 3) for r in range(3)]
        assert sum(len(s) for s in shards) == 10
        np.testing.assert_array_equal(shards[1].y, data.y[1::3])

    def test_shard_bad_rank(self):
        with pytest.raises(ValueError):
            make_dataset(4).shard(3, 3)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            InMemoryData(np.zeros((2, 1, 4, 4, 4)), np.zeros((3, 3)))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            InMemoryData(np.zeros((0, 1, 4, 4, 4)), np.zeros((0, 3)))

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(make_dataset(4).batches(0))


class TestAugmentation:
    def test_preserves_multiset_of_values(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((1, 4, 4, 4)).astype(np.float32)
        out = random_cube_symmetry(v, np.random.default_rng(1))
        assert out.shape == v.shape
        np.testing.assert_allclose(np.sort(out.ravel()), np.sort(v.ravel()))

    def test_identity_possible(self):
        """Some draws are the identity transform."""
        v = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        seen_identity = any(
            np.array_equal(random_cube_symmetry(v, np.random.default_rng(s)), v)
            for s in range(200)
        )
        assert seen_identity

    def test_nontrivial_transforms_occur(self):
        v = np.arange(27, dtype=np.float32).reshape(1, 3, 3, 3)
        outs = {random_cube_symmetry(v, np.random.default_rng(s)).tobytes() for s in range(50)}
        assert len(outs) > 5  # many distinct group elements sampled

    def test_deterministic_given_rng(self):
        v = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        a = random_cube_symmetry(v, np.random.default_rng(7))
        b = random_cube_symmetry(v, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_channel_axis_untouched(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((3, 2, 2, 2)).astype(np.float32)
        out = random_cube_symmetry(v, np.random.default_rng(3))
        # per-channel value multisets preserved -> channels not mixed
        for c in range(3):
            np.testing.assert_allclose(np.sort(out[c].ravel()), np.sort(v[c].ravel()))

    def test_bad_rank_raises(self):
        with pytest.raises(ValueError):
            random_cube_symmetry(np.zeros((2, 2, 2)), np.random.default_rng(0))

    def test_dataset_augment_flag(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 1, 3, 3, 3)).astype(np.float32)
        y = rng.random((4, 3)).astype(np.float32)
        plain = InMemoryData(x, y)
        aug = InMemoryData(x, y, augment=True)

        def shuffled_pass(data):
            batches = list(data.batches(1, rng=np.random.default_rng(5)))
            return np.concatenate([b for b, _ in batches]), np.concatenate([t for _, t in batches])

        # The shuffle is the pass's first draw, so both passes take the
        # same order and differ only by the symmetries.
        (xp, yp), (xa, ya) = shuffled_pass(plain), shuffled_pass(aug)
        assert not np.array_equal(xa, xp)  # some volume transformed
        np.testing.assert_array_equal(ya, yp)  # targets unchanged by augmentation

    def test_unshuffled_pass_reads_as_stored(self):
        """Evaluation draws no symmetry: two unshuffled passes over an
        augmented set are byte-equal, and equal to the stored volumes."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 1, 3, 3, 3)).astype(np.float32)
        y = rng.random((4, 3)).astype(np.float32)
        aug = InMemoryData(x, y, augment=True)
        passes = [
            np.concatenate([b for b, _ in aug.batches(2, shuffle=False)]).tobytes()
            for _ in range(2)
        ]
        assert passes[0] == passes[1] == x.tobytes()

    def test_shard_inherits_augment(self):
        x = np.zeros((4, 1, 2, 2, 2), dtype=np.float32)
        y = np.zeros((4, 3), dtype=np.float32)
        assert InMemoryData(x, y, augment=True).shard(0, 2).augment


class TestTrainer:
    def test_loss_decreases(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        engine = local_engine(
            model,
            make_dataset(8),
            EngineConfig(epochs=6, validate=False),
            opt=OptimizerConfig(eta0=5e-3, decay_steps=100),
        )
        hist = engine.run()
        assert len(hist.train_loss) == 6
        assert hist.train_loss[-1] < hist.train_loss[0]

    def test_validation_tracked(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        engine = local_engine(
            model,
            make_dataset(6),
            EngineConfig(epochs=2),
            val_data=make_dataset(4, seed=9),
        )
        hist = engine.run()
        assert len(hist.val_loss) == 2
        assert all(np.isfinite(v) for v in hist.val_loss)

    def test_no_val_data_gives_nan(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        engine = local_engine(model, make_dataset(4), EngineConfig(epochs=1))
        hist = engine.run()
        assert np.isnan(hist.val_loss[0])

    def test_validate_without_data_raises(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        engine = local_engine(model, make_dataset(4), EngineConfig(epochs=1))
        rc = engine.backend.context(engine, engine.build_callbacks())
        with pytest.raises(RuntimeError):
            engine.validate(rc)

    def test_stage_timer_populated(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        engine = local_engine(model, make_dataset(4), EngineConfig(epochs=1, validate=False))
        engine.run()
        m = engine.metrics
        assert m.value("engine.stage.compute.count") == 4
        assert m.value("engine.stage.optimizer.count") == 4
        assert m.value("engine.stage.compute.seconds") > 0

    def test_throughput(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        engine = local_engine(model, make_dataset(4), EngineConfig(epochs=1, validate=False))
        assert engine.throughput()["samples_per_sec"] == 0.0
        engine.run()
        tp = engine.throughput()
        assert tp["samples_per_sec"] > 0
        assert tp["flops_per_sec"] == pytest.approx(
            tp["samples_per_sec"] * model.flops_per_sample()
        )

    def test_with_single_rank_plugin(self):
        """Paper-style: plugin enabled even on a single node."""
        model = CosmoFlowModel(tiny_16(), seed=0)
        engine = local_engine(
            model,
            make_dataset(4),
            EngineConfig(epochs=2),
            val_data=make_dataset(2, seed=5),
            comm=SerialCommunicator(),
        )
        hist = engine.run()
        # 4 gradient averages (4 samples, batch 1) and 1 validation
        # average per epoch.
        assert engine.metrics.value("engine.stage.comm.count") == 10
        assert len(hist.train_loss) == 2

    def test_plugin_does_not_change_numerics(self):
        """A single-rank plugin must be a numerical no-op."""
        a = CosmoFlowModel(tiny_16(), seed=0)
        b = CosmoFlowModel(tiny_16(), seed=0)
        data = make_dataset(4)
        cfg = EngineConfig(epochs=2, validate=False, seed=11)
        local_engine(a, data, cfg, opt=OptimizerConfig()).run()
        local_engine(
            b,
            data,
            cfg,
            opt=OptimizerConfig(),
            comm=SerialCommunicator(),
        ).run()
        np.testing.assert_allclose(
            a.get_flat_parameters(), b.get_flat_parameters(), rtol=1e-6, atol=1e-7
        )

    def test_history_lr_recorded(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        engine = local_engine(
            model,
            make_dataset(4),
            EngineConfig(epochs=2, validate=False),
            opt=OptimizerConfig(decay_steps=8),
        )
        hist = engine.run()
        assert hist.lr[0] == pytest.approx(2e-3)
        assert hist.lr[1] < hist.lr[0]

    def test_history_as_dict(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        engine = local_engine(model, make_dataset(4), EngineConfig(epochs=1, validate=False))
        d = engine.run().as_dict()
        assert set(d) == {"train_loss", "val_loss", "epoch_time", "lr", "effective_batch"}
