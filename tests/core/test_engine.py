"""The TrainingEngine: callback hooks, backend protocol, config knobs.

Cross-mode numerics are the contract's engine line
(``tests/contract/test_engine_line.py``); this file tests the engine's
*mechanics* — hooks fire in order with the right context, the
divergence threshold is a config field, and the loop body is mode-free.
"""

import inspect

import numpy as np
import pytest

import repro.core.engine as engine_mod
from repro.core.elastic import ElasticConfig
from repro.core.engine import (
    Callback,
    CheckpointCallback,
    EngineConfig,
    LocalBackend,
    RankStream,
    SteppedBackend,
    ThreadedBackend,
    TrainingEngine,
)
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer, OptimizerConfig
from repro.core.topology import tiny_16
from repro.core.trainer import InMemoryData
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.obs import Tracer

OPT = OptimizerConfig(eta0=5e-3, decay_steps=50)


def make_dataset(n=6, seed=0, size=16):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, size, size, size)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(n, 3)).astype(np.float32)
    return InMemoryData(x, y)


def local_engine(epochs=2, n=4, callbacks=(), val=True, **cfg_kwargs):
    model = CosmoFlowModel(tiny_16(), seed=0)
    optimizer = CosmoFlowOptimizer(model.parameter_arrays(), OPT)
    backend = LocalBackend(
        model,
        optimizer,
        make_dataset(n),
        val_data=make_dataset(3, seed=7) if val else None,
    )
    return TrainingEngine(
        backend,
        config=EngineConfig(epochs=epochs, **cfg_kwargs),
        callbacks=callbacks,
    )


class Recorder(Callback):
    """Records every hook invocation as (hook, interesting-arg)."""

    def __init__(self):
        self.events = []

    def on_run_start(self, rc):
        self.events.append(("run_start", rc.rank))

    def on_epoch_start(self, rc):
        self.events.append(("epoch_start", rc.epoch))

    def on_step_end(self, rc):
        self.events.append(("step_end", rc.step))

    def on_validation(self, rc):
        self.events.append(("validation", rc.last_val_loss))

    def on_epoch_end(self, rc):
        self.events.append(("epoch_end", rc.epoch))

    def on_rank_end(self, rc):
        self.events.append(("rank_end", rc.rank))

    def on_restart(self, engine, restarts, exc):
        self.events.append(("restart", restarts))

    def on_run_end(self, engine, result):
        self.events.append(("run_end", len(result.history.train_loss)))


class TestCallbackHooks:
    def test_hooks_fire_in_canonical_order(self):
        rec = Recorder()
        local_engine(epochs=2, n=3, callbacks=[rec]).run()
        names = [name for name, _ in rec.events]
        per_epoch = ["epoch_start", "step_end", "step_end", "step_end",
                     "validation", "epoch_end"]
        assert names == ["run_start"] + per_epoch + per_epoch + ["rank_end", "run_end"]

    def test_step_and_epoch_indices(self):
        rec = Recorder()
        local_engine(epochs=2, n=3, callbacks=[rec]).run()
        assert [e for name, e in rec.events if name == "epoch_start"] == [0, 1]
        assert [s for name, s in rec.events if name == "step_end"] == [0, 1, 2] * 2
        val_losses = [v for name, v in rec.events if name == "validation"]
        assert all(np.isfinite(v) for v in val_losses)

    def test_no_validation_hook_without_val_data(self):
        rec = Recorder()
        local_engine(epochs=1, n=3, callbacks=[rec], val=False).run()
        assert "validation" not in [name for name, _ in rec.events]

    def test_hooks_fire_on_every_threaded_rank(self):
        rec = Recorder()
        backend = ThreadedBackend(
            tiny_16(), make_dataset(6), optimizer_config=OPT, n_ranks=2
        )
        TrainingEngine(
            backend, config=EngineConfig(epochs=1), callbacks=[rec]
        ).run()
        assert sorted(r for name, r in rec.events if name == "rank_end") == [0, 1]
        # run_end is a driver hook: once, not per rank.
        assert [name for name, _ in rec.events].count("run_end") == 1

    def test_on_restart_fires_on_quorum_loss(self, tmp_path):
        rec = Recorder()
        plan = FaultPlan(
            seed=1, events=[FaultEvent(FaultKind.RANK_CRASH, rank=1, step=4)]
        )
        backend = ThreadedBackend(
            tiny_16(),
            make_dataset(6),
            optimizer_config=OPT,
            n_ranks=2,
            elastic=ElasticConfig(
                timeout_s=10.0,
                quorum_fraction=1.0,  # every rank: any crash loses quorum
                checkpoint_dir=str(tmp_path),
                max_restarts=2,
            ),
            injector=FaultInjector(plan),
        )
        engine = TrainingEngine(
            backend, config=EngineConfig(epochs=4), callbacks=[rec]
        )
        hist = engine.run()
        assert ("restart", 1) in rec.events
        assert engine.group_stats["restarts"] == 1
        assert len(hist.train_loss) == 4  # full span despite the restart


class TestDivergenceThreshold:
    class Perturb(Callback):
        """Knock rank 1's replica off after the last epoch's updates."""

        def __init__(self, magnitude):
            self.magnitude = magnitude

        def on_epoch_end(self, rc):
            if rc.rank == 1 and rc.epoch == rc.engine.config.epochs - 1:
                params = rc.model.parameter_arrays()
                params[0][...] += self.magnitude

    def _run(self, magnitude, threshold):
        backend = ThreadedBackend(
            tiny_16(), make_dataset(6), optimizer_config=OPT, n_ranks=2
        )
        engine = TrainingEngine(
            backend,
            config=EngineConfig(epochs=1, divergence_threshold=threshold),
            callbacks=[self.Perturb(magnitude)],
        )
        return engine.run()

    def test_divergence_beyond_threshold_raises(self):
        with pytest.raises(RuntimeError, match="divergence"):
            self._run(magnitude=1e-2, threshold=1e-5)

    def test_threshold_is_configurable(self):
        hist = self._run(magnitude=1e-2, threshold=1.0)
        assert len(hist.train_loss) == 1


class TestEngineMechanics:
    def test_step_loop_has_no_mode_branches(self):
        """Acceptance criterion: zero ``if mode ==`` dispatch in the engine."""
        source = inspect.getsource(engine_mod)
        assert "mode ==" not in source
        assert 'mode="' not in source

    def test_run_epochs_override(self):
        eng = local_engine(epochs=5, n=3)
        hist = eng.run(epochs=1)
        assert len(hist.train_loss) == 1

    def test_final_model_before_run_raises(self):
        eng = local_engine()
        with pytest.raises(RuntimeError, match="has not completed"):
            eng.final_model

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(epochs=-1)
        with pytest.raises(ValueError):
            EngineConfig(batch_size=0)
        with pytest.raises(ValueError):
            EngineConfig(divergence_threshold=-0.5)

    def test_group_stats_published_on_engine(self):
        backend = SteppedBackend(
            tiny_16(), make_dataset(4), optimizer_config=OPT, n_ranks=2
        )
        eng = TrainingEngine(backend, config=EngineConfig(epochs=1))
        eng.run()
        assert eng.group_stats["reductions"] > 0
        assert eng.group_stats["bytes_reduced"] > 0

    def test_checkpoint_callback_on_local_backend(self, tmp_path):
        from repro.core.checkpoint import latest_checkpoint

        eng = local_engine(
            epochs=2, n=3, callbacks=[CheckpointCallback(tmp_path)]
        )
        eng.run()
        ckpt = latest_checkpoint(tmp_path)
        # Checkpoints are named by global step: 2 epochs x 3 steps.
        assert ckpt is not None and ckpt.name == "ckpt-00000006.npz"

    def test_validation_io_attributed_to_io_stage(self):
        """Satellite: val batch fetches land in ``io``, not ``other``."""
        model = CosmoFlowModel(tiny_16(), seed=0)
        optimizer = CosmoFlowOptimizer(model.parameter_arrays(), OPT)
        backend = LocalBackend(
            model, optimizer, make_dataset(3), val_data=make_dataset(3, seed=7)
        )
        eng = TrainingEngine(backend, config=EngineConfig(epochs=1))
        eng.run()
        train_io_calls = 3  # one fetch per step of the epoch
        val_io_calls = 3 + 1
        assert eng.metrics.value("engine.stage.io.count") == train_io_calls + val_io_calls


class TestStageWindows:
    """``RankContext.timed_stage`` writes each window once, straight into
    the registry and tracer of the engine running the context."""

    @staticmethod
    def context():
        eng = local_engine(epochs=1, n=3, val=False)
        return eng, eng.backend.context(eng, eng.build_callbacks())

    def test_stage_accumulation(self):
        eng, rc = self.context()
        for _ in range(3):
            with rc.timed_stage("io"):
                pass
        assert eng.metrics.value("engine.stage.io.count") == 3
        assert eng.metrics.value("engine.stage.io.seconds") >= 0.0

    def test_exception_still_recorded(self):
        eng, rc = self.context()
        with pytest.raises(KeyError):
            with rc.timed_stage("compute"):
                raise KeyError("boom")
        assert eng.metrics.value("engine.stage.compute.count") == 1

    def test_other_is_each_epochs_untracked_remainder(self):
        eng, rc = self.context()
        with rc.timed_stage("io"):
            pass
        tracked = eng.metrics.value("engine.stage.io.seconds")
        rc.account_untracked(1.0)
        assert eng.metrics.value("engine.stage.other.seconds") == 1.0 - tracked
        rc.account_untracked(0.5)  # the next epoch tracked nothing
        assert eng.metrics.value("engine.stage.other.seconds") == (1.0 - tracked) + 0.5
        assert eng.metrics.value("engine.stage.other.count") == 2

    def test_reused_local_backend_counts_into_the_running_engine(self):
        model = CosmoFlowModel(tiny_16(), seed=0)
        backend = LocalBackend(
            model, CosmoFlowOptimizer(model.parameter_arrays(), OPT), make_dataset(3)
        )
        engines = [
            TrainingEngine(backend, config=EngineConfig(epochs=1), tracer=Tracer())
            for _ in range(2)
        ]
        for eng in engines:
            eng.run()
        for eng in engines:
            spans = [e for e in eng.tracer.events if e.ph == "X" and e.name == "compute"]
            assert len(spans) == 3
            assert eng.metrics.value("engine.stage.compute.count") == 3
            assert eng.metrics.value("engine.records") == 3


class TestRankStream:
    def test_seek_stands_where_an_uninterrupted_stream_stands(self):
        """A rank readmitted at step 1 of epoch 2 draws what a rank that
        never left draws there: 5 samples at batch 2 are 3 steps, the
        last one short."""
        shard = make_dataset(5)

        def stream():
            return RankStream(shard, np.random.default_rng([0, 1]), 2, 3)

        never_left = stream()
        for epoch in range(2):
            for _ in range(3):
                never_left.next(epoch)
        never_left.next(2)
        rejoined = stream()
        rejoined.seek(2, 1)
        for _ in range(2):
            want, got = never_left.next(2), rejoined.next(2)
            assert want[0].tobytes() == got[0].tobytes()
            assert want[1].tobytes() == got[1].tobytes()


class TestFrontDoor:
    """``TrainingEngine`` over a backend is the only way to start a run."""

    REMOVED = (
        "Trainer",
        "TrainerConfig",
        "DistributedTrainer",
        "DistributedConfig",
        "ElasticTrainer",
        "run_elastic",
    )

    def test_distributed_module_is_gone(self):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.distributed")

    def test_removed_names_are_not_exported(self):
        import repro
        import repro.core

        for package in (repro, repro.core):
            assert not set(self.REMOVED) & set(package.__all__)
            for name in self.REMOVED:
                assert not hasattr(package, name)

    def test_throughput_counts_every_simulated_rank(self):
        backend = SteppedBackend(tiny_16(), make_dataset(6), optimizer_config=OPT, n_ranks=3)
        eng = TrainingEngine(backend, config=EngineConfig(epochs=2, validate=False))
        assert eng.throughput() == {
            "samples_per_sec": 0.0, "flops_per_sec": 0.0, "step_time": 0.0
        }
        hist = eng.run()
        tp = eng.throughput()
        assert tp["samples_per_sec"] == pytest.approx(6 * 2 / sum(hist.epoch_time))
        assert tp["flops_per_sec"] == pytest.approx(
            tp["samples_per_sec"] * eng.final_model.flops_per_sample()
        )
