"""Tests for elastic fault-tolerant SSGD (the resilience tentpole).

The contract under test:

* faults disabled → bitwise identical to the threaded backend (same
  history, same final parameters; more configurations are cells of the
  contract's engine line, ``tests/contract/test_engine_line.py``);
* a rank crash at a fixed step → training completes over the survivors
  with the gradient average renormalized, final loss close to the
  fault-free run;
* quorum loss → restart from the last crash-safe checkpoint with the
  full rank count, consumed fault events not re-firing;
* injected I/O and comm faults never crash the run.
"""

import numpy as np
import pytest

from repro.comm.errors import QuorumLostError
from repro.core.elastic import ElasticConfig
from repro.core.engine import EngineConfig, ThreadedBackend, TrainingEngine
from repro.core.optimizer import OptimizerConfig
from repro.core.topology import tiny_16
from repro.core.trainer import InMemoryData
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from tests.contract import dataset


OPT = OptimizerConfig(eta0=5e-3, decay_steps=50)
FAST = ElasticConfig(timeout_s=10.0)


def group_engine(backend_cls, data, n_ranks, epochs, **kwargs):
    backend = backend_cls(tiny_16(), data, optimizer_config=OPT, n_ranks=n_ranks, **kwargs)
    return TrainingEngine(backend, EngineConfig(epochs=epochs, validate=False))


def run_threaded_reference(n_ranks=3, epochs=3, n=9):
    engine = group_engine(ThreadedBackend, dataset(n), n_ranks, epochs)
    hist = engine.run()
    return hist, engine.final_model.get_flat_parameters()


def eval_loss(model, n=12, seed=1):
    """Loss of ``model`` on a fixed held-out set (same for every run)."""
    data = dataset(n, seed=seed)
    return float(
        np.mean([model.validation_loss(x, y) for x, y in data.batches(1, shuffle=False)])
    )


class TestConfig:
    def test_quorum_resolution(self):
        assert ElasticConfig(quorum_fraction=0.5).resolve_quorum(8) == 4
        assert ElasticConfig(quorum_fraction=0.75).resolve_quorum(8) == 6
        assert ElasticConfig(quorum_fraction=1.0).resolve_quorum(8) == 8
        assert ElasticConfig(quorum_fraction=0.01).resolve_quorum(2) == 1

    def test_quorum_takes_the_fraction_as_written(self):
        # 0.56 * 25 is 14.000000000000002 in floats; its ceiling is 15.
        assert ElasticConfig(quorum_fraction=0.56).resolve_quorum(25) == 14

    def test_validation(self):
        with pytest.raises(ValueError):
            ElasticConfig(timeout_s=0)
        with pytest.raises(ValueError):
            ElasticConfig(quorum_fraction=0.0)
        with pytest.raises(ValueError):
            ElasticConfig(max_restarts=-1)
        with pytest.raises(ValueError):
            ElasticConfig(join_timeout_s=0.0)

    def test_join_unbounded_by_default(self):
        # A healthy run must never be wall-clock capped by the join
        # (the collective timeout is a heartbeat, not a run bound).
        assert ElasticConfig().join_timeout_s is None


class TestBitwiseIdentity:
    def test_fault_free_matches_threaded_exactly(self):
        ref_hist, ref_params = run_threaded_reference()
        engine = group_engine(
            ThreadedBackend,
            dataset(9),
            3,
            3,
            elastic=FAST,
        )
        hist = engine.run()
        assert hist.train_loss == ref_hist.train_loss  # bitwise, not approx
        assert hist.lr == ref_hist.lr
        np.testing.assert_array_equal(
            engine.final_model.get_flat_parameters(), ref_params
        )
        assert engine.group_stats["restarts"] == 0
        assert engine.group_stats["failed_ranks"] == []


class TestCrashSurvival:
    def test_rank_crash_completes_over_survivors(self):
        epochs, n_ranks, n = 6, 4, 16
        ref_engine = group_engine(
            ThreadedBackend,
            dataset(n),
            n_ranks,
            epochs,
        )
        ref_engine.run()
        ref_loss = eval_loss(ref_engine.final_model)
        # Crash rank 3 at a fixed late step (epoch 4 of 6): survivors
        # finish the remaining ~5 epochs-worth of steps without it.
        plan = FaultPlan(
            seed=42,
            events=[FaultEvent(FaultKind.RANK_CRASH, rank=3, step=19)],
        )
        engine = group_engine(
            ThreadedBackend,
            dataset(n),
            n_ranks,
            epochs,
            elastic=FAST,
            injector=FaultInjector(plan),
        )
        hist = engine.run()
        assert len(hist.train_loss) == epochs  # all epochs completed
        stats = engine.group_stats
        assert stats["failed_ranks"] == [3]
        assert stats["survivors"] == [0, 1, 2]
        assert stats["faults_injected"] == {"rank_crash": 1}
        # Acceptance criterion: held-out loss within 10% of fault-free.
        assert eval_loss(engine.final_model) == pytest.approx(ref_loss, rel=0.10)

    def test_rank0_crash_still_returns_model(self):
        plan = FaultPlan(events=[FaultEvent(FaultKind.RANK_CRASH, rank=0, step=2)])
        engine = group_engine(
            ThreadedBackend,
            dataset(9),
            3,
            2,
            elastic=FAST,
            injector=FaultInjector(plan),
        )
        hist = engine.run()
        assert len(hist.train_loss) == 2
        assert engine.final_model is not None
        assert engine.group_stats["survivors"] == [1, 2]

    def test_straggler_rank_is_evicted(self):
        plan = FaultPlan(
            events=[FaultEvent(FaultKind.RANK_HANG, rank=1, step=3, delay_s=2.0)]
        )
        engine = group_engine(
            ThreadedBackend,
            dataset(9),
            3,
            2,
            elastic=ElasticConfig(timeout_s=0.3),
            injector=FaultInjector(plan),
        )
        hist = engine.run()
        assert len(hist.train_loss) == 2
        assert engine.group_stats["evicted_ranks"] == [1]
        assert engine.group_stats["survivors"] == [0, 2]

    def test_message_corruption_recovered_bitwise(self):
        ref_hist, ref_params = run_threaded_reference()
        # step is a global *training* step (epoch 1, step 2 of 3 here):
        # the rank's first gradient contribution of that step is flipped.
        plan = FaultPlan(
            events=[FaultEvent(FaultKind.MESSAGE_CORRUPT, rank=1, step=5)]
        )
        engine = group_engine(
            ThreadedBackend,
            dataset(9),
            3,
            3,
            elastic=FAST,
            injector=FaultInjector(plan),
        )
        hist = engine.run()
        # Retransmission makes corruption invisible to the numerics.
        assert hist.train_loss == ref_hist.train_loss
        np.testing.assert_array_equal(
            engine.final_model.get_flat_parameters(), ref_params
        )
        assert engine.group_stats["retransmits"] == 1


class TestQuorumRestart:
    def test_restart_from_checkpoint_on_quorum_loss(self, tmp_path):
        # quorum == n_ranks: any crash forces a checkpoint restart.
        plan = FaultPlan(
            events=[FaultEvent(FaultKind.RANK_CRASH, rank=1, step=4)]
        )
        engine = group_engine(
            ThreadedBackend,
            dataset(9),
            3,
            3,
            elastic=ElasticConfig(
                timeout_s=10.0,
                quorum_fraction=1.0,
                checkpoint_dir=str(tmp_path),
                max_restarts=2,
            ),
            injector=FaultInjector(plan),
        )
        hist = engine.run()
        stats = engine.group_stats
        assert stats["restarts"] == 1
        # The crash fired in epoch 1 (step 4 of 3-step epochs); the
        # restart resumed from the epoch-1 checkpoint and re-ran the
        # remaining epochs with the full rank count.  The checkpoint
        # also carries the completed epoch's curves, so History spans
        # the whole run, not just the epochs after resume.
        assert stats["survivors"] == [0, 1, 2]
        assert len(hist.train_loss) == 3
        assert hist.train_loss[-1] < hist.train_loss[0] * 1.5  # still training

    def test_quorum_loss_without_checkpoints_raises(self):
        plan = FaultPlan(
            events=[FaultEvent(FaultKind.RANK_CRASH, rank=0, step=1)]
        )
        engine = group_engine(
            ThreadedBackend,
            dataset(9),
            3,
            2,
            elastic=ElasticConfig(timeout_s=10.0, quorum_fraction=1.0),  # no checkpoint_dir
            injector=FaultInjector(plan),
        )
        with pytest.raises(QuorumLostError):
            engine.run()

    def test_restart_resume_matches_uninterrupted_determinism(self, tmp_path):
        """Burned-in RNG streams: a resumed run and a straight run end
        at the same parameters when the same ranks survive throughout."""
        ref_hist, ref_params = run_threaded_reference(n_ranks=2, epochs=4, n=8)
        # All-rank quorum, crash in epoch 2 → restart resumes epoch 2
        # with both ranks alive again; no shrink ever happens, so the
        # final state must match the uninterrupted threaded run.
        plan = FaultPlan(
            events=[FaultEvent(FaultKind.RANK_CRASH, rank=1, step=9)]
        )
        engine = group_engine(
            ThreadedBackend,
            dataset(8),
            2,
            4,
            elastic=ElasticConfig(
                timeout_s=10.0, quorum_fraction=1.0, checkpoint_dir=str(tmp_path)
            ),
            injector=FaultInjector(plan),
        )
        hist = engine.run()
        assert engine.group_stats["restarts"] == 1
        np.testing.assert_array_equal(
            engine.final_model.get_flat_parameters(), ref_params
        )
        # Full-span history: the checkpointed pre-crash epochs plus the
        # resumed epochs reproduce the uninterrupted reference bitwise.
        assert hist.train_loss == ref_hist.train_loss


class ShortEpochData(InMemoryData):
    """Emulates a ``strict=False`` record dataset whose file went corrupt
    after construction: ``len()`` still counts every record, but each
    epoch stream silently comes up one batch short (the skipped record).
    """

    def batches(self, batch_size=1, rng=None, shuffle=True):
        out = list(super().batches(batch_size, rng=rng, shuffle=shuffle))
        yield from out[:-1]

    def shard(self, rank, n_ranks):
        base = super().shard(rank, n_ranks)
        return ShortEpochData(base.x, base.y)


class TestShortEpochStream:
    def test_skipped_record_does_not_crash_training(self):
        """A shard shortened by skip-and-count must not kill the rank
        with StopIteration — the epoch stream is recycled instead."""
        epochs, n_ranks = 2, 2
        engine = group_engine(
            ThreadedBackend,
            ShortEpochData(dataset(8).x, dataset(8).y),
            n_ranks,
            epochs,
            elastic=FAST,
        )
        hist = engine.run()
        assert len(hist.train_loss) == epochs
        assert engine.group_stats["failed_ranks"] == []
        assert engine.group_stats["survivors"] == list(range(n_ranks))
