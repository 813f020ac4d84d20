"""Mixed-precision training: loss scaler, fp16 optimizer path,
checkpoint/resync transport of scaler+master state."""

import numpy as np
import pytest

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.engine import EngineConfig, SteppedBackend, TrainingEngine
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer, OptimizerConfig
from repro.core.precision import (
    DEFAULT_LOSS_SCALE,
    LossScaler,
    any_nonfinite,
    fp16_loss_and_gradients,
    fp16_round,
)
from repro.core.topology import tiny_16
from repro.core.trainer import InMemoryData


def make_dataset(n=8, seed=0, size=16):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, size, size, size)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(n, 3)).astype(np.float32)
    return InMemoryData(x, y)


class TestFp16Round:
    def test_idempotent(self):
        a = np.random.default_rng(0).standard_normal(100).astype(np.float32)
        r = fp16_round(a)
        assert np.array_equal(fp16_round(r), r)

    def test_exact_fp16_values_unchanged(self):
        a = np.asarray([1.0, 0.5, -2.0, 65504.0, 2.0**-24], dtype=np.float32)
        assert np.array_equal(fp16_round(a), a)

    def test_overflow_becomes_inf(self):
        a = np.asarray([1e5, -1e5], dtype=np.float32)
        r = fp16_round(a)
        assert np.isinf(r).all()
        assert r[0] > 0 and r[1] < 0

    def test_tiny_values_flush(self):
        # Below the fp16 subnormal floor the value is lost entirely.
        assert fp16_round(np.asarray([1e-9], dtype=np.float32))[0] == 0.0

    def test_any_nonfinite(self):
        ok = [np.ones(3, np.float32)]
        assert not any_nonfinite(ok)
        assert any_nonfinite(ok + [np.asarray([np.inf], np.float32)])
        assert any_nonfinite([np.asarray([np.nan], np.float32)])


class TestLossScaler:
    def test_defaults(self):
        s = LossScaler()
        assert s.scale == DEFAULT_LOSS_SCALE == 2.0**16

    def test_overflow_detection(self):
        s = LossScaler()
        assert s.check_overflow([np.asarray([np.inf], np.float32)])
        assert s.check_overflow([np.zeros(2, np.float32), np.asarray([np.nan], np.float32)])
        assert not s.check_overflow([np.zeros(2, np.float32)])

    def test_unscale_is_exact(self):
        # Powers of two: multiplying by 1/scale is exact in IEEE-754.
        s = LossScaler(init_scale=2.0**10)
        g = np.random.default_rng(1).standard_normal(50).astype(np.float32)
        scaled = g * np.float32(s.scale)
        assert np.array_equal(s.unscale([scaled])[0], g)

    def test_overflow_halves_and_counts(self):
        s = LossScaler(init_scale=1024.0)
        s.update(True)
        assert s.scale == 512.0
        assert s.skipped_steps == 1 and s.overflows == 1
        assert s.good_steps == 0

    def test_overflow_resets_growth_progress(self):
        s = LossScaler(init_scale=1024.0, growth_interval=4)
        for _ in range(3):
            s.update(False)
        assert s.good_steps == 3
        s.update(True)
        assert s.good_steps == 0 and s.scale == 512.0

    def test_growth_after_interval(self):
        s = LossScaler(init_scale=1024.0, growth_interval=3)
        for _ in range(3):
            s.update(False)
        assert s.scale == 2048.0
        assert s.good_steps == 0  # counter restarts after a doubling

    def test_halve_then_regrow_schedule(self):
        s = LossScaler(init_scale=1024.0, growth_interval=2)
        s.update(True)  # 512
        s.update(False)
        s.update(False)  # regrow: 1024
        assert s.scale == 1024.0
        assert s.skipped_steps == 1

    def test_min_scale_clamp(self):
        s = LossScaler(init_scale=2.0, min_scale=1.0)
        for _ in range(5):
            s.update(True)
        assert s.scale == 1.0

    def test_max_scale_clamp(self):
        s = LossScaler(init_scale=2.0**23, growth_interval=1, max_scale=2.0**24)
        s.update(False)
        s.update(False)
        assert s.scale == 2.0**24

    def test_state_round_trip(self):
        s = LossScaler(init_scale=1024.0, growth_interval=5)
        s.update(True)
        s.update(False)
        fresh = LossScaler(init_scale=1024.0, growth_interval=5)
        fresh.load_state_array(s.state_array())
        assert fresh.scale == s.scale
        assert fresh.good_steps == s.good_steps
        assert fresh.skipped_steps == s.skipped_steps
        assert fresh.overflows == s.overflows

    def test_state_size_checked(self):
        with pytest.raises(ValueError):
            LossScaler().load_state_array(np.zeros(3))

    def test_bad_args(self):
        with pytest.raises(ValueError):
            LossScaler(init_scale=0.0)
        with pytest.raises(ValueError):
            LossScaler(growth_factor=1.0)
        with pytest.raises(ValueError):
            LossScaler(backoff_factor=1.0)
        with pytest.raises(ValueError):
            LossScaler(growth_interval=0)

    def test_stats_keys_numeric(self):
        stats = LossScaler().stats()
        assert set(stats) == {
            "loss_scale",
            "loss_scale_skipped_steps",
            "loss_scale_overflows",
        }
        assert all(isinstance(v, (int, float)) for v in stats.values())


class TestOptimizerFp16:
    def _opt(self, model, **kw):
        cfg = OptimizerConfig(decay_steps=100, precision="fp16", **kw)
        return CosmoFlowOptimizer(model.parameter_arrays(), cfg)

    def test_bad_precision_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(precision="bf16")

    def test_fp32_mode_has_no_scaler(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        opt = CosmoFlowOptimizer(model.parameter_arrays(), OptimizerConfig())
        assert opt.scaler is None and opt.master is None
        assert opt.master_flat() is None

    def test_params_rounded_to_fp16_values(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        opt = self._opt(model)
        for p, mp in zip(opt.params, opt.master):
            assert np.array_equal(p, fp16_round(mp))
        # And they stay rounded after a step.
        grads = [np.full_like(p, 1e-3) for p in opt.params]
        s = np.float32(opt.scaler.scale)
        opt.step([g * s for g in grads])
        for p, mp in zip(opt.params, opt.master):
            assert np.array_equal(p, fp16_round(mp))

    def test_masters_stay_fp32(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        opt = self._opt(model)
        assert all(m.dtype == np.float32 for m in opt.master)
        # Masters diverge from the rounded params after updates.
        assert opt.master[0] is not opt.params[0]

    def test_overflow_skips_adam_but_advances_schedule(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        opt = self._opt(model)
        params_before = [p.copy() for p in opt.params]
        inf_grads = [np.full_like(p, np.inf) for p in opt.params]
        opt.step(inf_grads)
        assert opt.adam.t == 0  # Adam untouched
        assert opt.step_count == 1  # schedule clock advanced
        assert opt.scaler.skipped_steps == 1
        assert opt.scaler.scale == DEFAULT_LOSS_SCALE / 2
        for p, before in zip(opt.params, params_before):
            assert np.array_equal(p, before)

    def test_good_step_updates_masters(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        opt = self._opt(model)
        masters_before = [m.copy() for m in opt.master]
        s = np.float32(opt.scaler.scale)
        opt.step([np.full_like(p, 1e-3) * s for p in opt.params])
        assert opt.adam.t == 1
        assert any(
            not np.array_equal(m, b) for m, b in zip(opt.master, masters_before)
        )

    def test_state_arrays_include_precision_state(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        opt32 = CosmoFlowOptimizer(
            CosmoFlowModel(tiny_16(), seed=0).parameter_arrays(), OptimizerConfig()
        )
        opt16 = self._opt(model)
        n_params = len(opt16.params)
        assert len(opt16.state_arrays()) == len(opt32.state_arrays()) + n_params + 1

    def test_master_flat_round_trip(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        opt = self._opt(model)
        flat = opt.master_flat()
        other = self._opt(CosmoFlowModel(tiny_16(), seed=1))
        other.set_master_flat(flat)
        assert np.array_equal(other.master_flat(), flat)
        for p, mp in zip(other.params, other.master):
            assert np.array_equal(p, fp16_round(mp))

    def test_set_master_flat_rejected_in_fp32(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        opt = CosmoFlowOptimizer(model.parameter_arrays(), OptimizerConfig())
        with pytest.raises(ValueError):
            opt.set_master_flat(np.zeros(model.num_parameters, np.float32))


class TestFp16LossAndGradients:
    def test_scaled_grads_are_fp16_values(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        data = make_dataset(2)
        x, y = next(data.batches(2, shuffle=False))
        loss, grads = fp16_loss_and_gradients(model, x, y, 1024.0)
        assert np.isfinite(loss)
        for g in grads:
            assert np.array_equal(g, fp16_round(g))

    def test_loss_is_unscaled(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        data = make_dataset(2)
        x, y = next(data.batches(2, shuffle=False))
        loss_small, _ = fp16_loss_and_gradients(model, x, y, 1.0)
        loss_big, _ = fp16_loss_and_gradients(model, x, y, 2.0**20)
        assert loss_small == loss_big

    def test_huge_scale_produces_overflow_signal(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        data = make_dataset(2)
        x, y = next(data.batches(2, shuffle=False))
        _, grads = fp16_loss_and_gradients(model, x, y, 2.0**30)
        assert any_nonfinite(grads)


def stepped2(data, optimizer_config, epochs):
    backend = SteppedBackend(tiny_16(), data, optimizer_config=optimizer_config, n_ranks=2)
    return TrainingEngine(backend, EngineConfig(epochs=epochs))


class TestTrainingSmoke:
    def test_fp16_training_runs_and_converges(self):
        oc = OptimizerConfig(decay_steps=100, precision="fp16", loss_scale_init=256.0)
        tr = stepped2(make_dataset(12, seed=3), oc, epochs=2)
        hist = tr.run()
        assert all(np.isfinite(hist.train_loss))
        assert hist.train_loss[-1] < hist.train_loss[0]
        assert "loss_scale" in tr.group_stats

    def test_injected_overflow_skipped_and_recovered(self):
        # An absurd initial scale guarantees overflow on the first
        # step(s); dynamic backoff halves until training proceeds.
        oc = OptimizerConfig(
            decay_steps=100, precision="fp16", loss_scale_init=float(2**24)
        )
        tr = stepped2(make_dataset(12, seed=3), oc, epochs=2)
        hist = tr.run()
        assert tr.group_stats["loss_scale_skipped_steps"] >= 1
        assert tr.group_stats["loss_scale"] < 2**24  # backed off
        assert np.isfinite(hist.train_loss[-1])

    def test_fp32_path_bitwise_unchanged_by_precision_machinery(self):
        # Two identical fp32 runs through the new code paths.
        results = []
        for _ in range(2):
            tr = stepped2(make_dataset(8, seed=1), OptimizerConfig(decay_steps=50), epochs=1)
            tr.run()
            results.append(tr.final_model.get_flat_parameters())
        assert np.array_equal(results[0], results[1])


class TestCheckpointPrecisionState:
    def _trained_fp16(self, seed=0, steps=3):
        model = CosmoFlowModel(tiny_16(), seed=seed)
        opt = CosmoFlowOptimizer(
            model.parameter_arrays(),
            OptimizerConfig(decay_steps=100, precision="fp16", loss_scale_init=256.0),
        )
        data = make_dataset(steps * 2, seed=seed)
        it = data.batches(2, shuffle=False)
        for _ in range(steps):
            x, y = next(it)
            loss, grads = fp16_loss_and_gradients(model, x, y, opt.scaler.scale)
            opt.step(grads)
        return model, opt

    def test_round_trip_carries_masters_and_scaler(self, tmp_path):
        model, opt = self._trained_fp16()
        opt.scaler.update(True)  # make the scaler state distinctive
        path = save_checkpoint(tmp_path / "ckpt", model, opt)

        model2 = CosmoFlowModel(tiny_16(), seed=9)
        opt2 = CosmoFlowOptimizer(
            model2.parameter_arrays(),
            OptimizerConfig(decay_steps=100, precision="fp16", loss_scale_init=256.0),
        )
        load_checkpoint(path, model2, opt2)
        assert np.array_equal(opt2.master_flat(), opt.master_flat())
        assert np.array_equal(opt2.scaler.state_array(), opt.scaler.state_array())
        assert np.array_equal(
            model2.get_flat_parameters(), model.get_flat_parameters()
        )

    def test_fp32_checkpoint_loads_into_fp32_unchanged(self, tmp_path):
        model = CosmoFlowModel(tiny_16(), seed=0)
        opt = CosmoFlowOptimizer(model.parameter_arrays(), OptimizerConfig())
        path = save_checkpoint(tmp_path / "ckpt", model, opt)
        data = np.load(path, allow_pickle=False)
        with data:
            assert "master_parameters" not in data.files
            assert "scaler_state" not in data.files
        model2 = CosmoFlowModel(tiny_16(), seed=1)
        opt2 = CosmoFlowOptimizer(model2.parameter_arrays(), OptimizerConfig())
        load_checkpoint(path, model2, opt2)
        assert np.array_equal(
            model2.get_flat_parameters(), model.get_flat_parameters()
        )

    def test_resumed_fp16_run_replays_bitwise(self, tmp_path):
        # Train 3 steps, checkpoint, train 3 more; vs load + 3 more.
        model, opt = self._trained_fp16(steps=3)
        path = save_checkpoint(tmp_path / "ckpt", model, opt)

        data = make_dataset(12, seed=7)

        def three_more(m, o):
            it = m_data.batches(2, shuffle=False)
            for _ in range(3):
                x, y = next(it)
                _, grads = fp16_loss_and_gradients(m, x, y, o.scaler.scale)
                o.step(grads)
            return m.get_flat_parameters()

        m_data = data
        ref = three_more(model, opt)

        model2 = CosmoFlowModel(tiny_16(), seed=5)
        opt2 = CosmoFlowOptimizer(
            model2.parameter_arrays(),
            OptimizerConfig(decay_steps=100, precision="fp16", loss_scale_init=256.0),
        )
        load_checkpoint(path, model2, opt2)
        resumed = three_more(model2, opt2)
        assert np.array_equal(ref, resumed)
