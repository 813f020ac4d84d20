"""Engine-level tests for elastic grow-back (rank rejoin + warm spares).

The contract:

* a crashed rank scheduled to recover is readmitted at a step boundary
  with a full state resync and the active set (and effective global
  batch) grows back to full strength;
* a warm-spare pool auto-replaces evicted ranks without any scheduled
  recovery event;
* the whole fault + recovery schedule is seeded: replaying it gives a
  bitwise-identical run;
* a rejoin-enabled run with no faults is bitwise identical to the
  plain threaded backend (zero-cost when unused): the contract's engine
  line runs every ``elastic`` cell with two warm spares.
"""

import numpy as np

from repro.core.elastic import ElasticConfig
from repro.core.engine import EngineConfig, ThreadedBackend, TrainingEngine
from repro.core.optimizer import OptimizerConfig
from repro.core.topology import tiny_16
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.obs.metrics import MetricsRegistry
from tests.contract import dataset


OPT = OptimizerConfig(eta0=5e-3, decay_steps=50)


def run_growback(plan=None, spares=0, n_ranks=4, epochs=4, n=16, metrics=None, timeout_s=10.0):
    backend = ThreadedBackend(
        tiny_16(),
        dataset(n),
        optimizer_config=OPT,
        n_ranks=n_ranks,
        elastic=ElasticConfig(timeout_s=timeout_s, spares=spares),
        injector=FaultInjector(plan or FaultPlan()),
    )
    engine = TrainingEngine(
        backend, EngineConfig(epochs=epochs, validate=False), metrics=metrics
    )
    hist = engine.run()
    return engine, hist


class TestGrowBack:
    def test_crash_then_recover_restores_full_group(self):
        # 4 steps/epoch: crash in epoch 1, recover in epoch 2.
        plan = FaultPlan(
            events=[FaultEvent(FaultKind.RANK_CRASH, rank=1, step=5)]
        ).with_recovery(4)
        metrics = MetricsRegistry()
        engine, hist = run_growback(plan, metrics=metrics)
        stats = engine.group_stats
        assert stats["failed_ranks"] == [1]
        assert stats["rejoins"] == [1]
        assert stats["survivors"] == [0, 1, 2, 3]
        assert stats["resyncs"] == 1
        assert stats["resync_bytes"] > 0
        assert stats["faults_injected"] == {"rank_crash": 1, "rank_recover": 1}
        # The effective global batch dips while shrunk, then recovers
        # to exactly its pre-crash value once the rank is readmitted.
        assert hist.effective_batch == [4.0, 3.0, 4.0, 4.0]
        assert len(hist.train_loss) == 4
        # The on_rejoin observability hook fired once.
        assert metrics.value("engine.rejoins") == 1

    def test_warm_spare_auto_replaces_crashed_rank(self):
        plan = FaultPlan(events=[FaultEvent(FaultKind.RANK_CRASH, rank=2, step=5)])
        engine, hist = run_growback(plan, spares=1)
        stats = engine.group_stats
        assert stats["rejoins"] == [2]
        assert stats["spares_used"] == 1
        assert stats["survivors"] == [0, 1, 2, 3]
        # The spare lands at the next step boundary, inside the same
        # epoch — by each epoch's end the group is at full strength.
        assert hist.effective_batch == [4.0, 4.0, 4.0, 4.0]

    def test_spare_join_event_revives_lowest_dead_rank(self):
        plan = FaultPlan(
            events=[
                FaultEvent(FaultKind.RANK_CRASH, rank=3, step=2),
                FaultEvent(FaultKind.RANK_CRASH, rank=0, step=3),
                FaultEvent(FaultKind.SPARE_JOIN, rank=None, step=6),
            ]
        )
        engine, hist = run_growback(plan, spares=1, epochs=3)
        stats = engine.group_stats
        # auto_respawn reserved the one spare for rank 3 (first death);
        # the SPARE_JOIN event then found the pool empty, so exactly one
        # rank grew back.
        assert stats["rejoins"] == [3]
        assert stats["spares_used"] == 1
        assert stats["survivors"] == [1, 2, 3]
        assert hist.effective_batch[-1] == 3.0

    def test_evicted_straggler_is_replaced_by_spare(self):
        plan = FaultPlan(
            events=[FaultEvent(FaultKind.RANK_HANG, rank=1, step=3, delay_s=2.0)]
        )
        engine, hist = run_growback(plan, spares=1, epochs=3, timeout_s=0.3)
        stats = engine.group_stats
        assert stats["evicted_ranks"] == [1]
        assert stats["rejoins"] == [1]
        assert stats["survivors"] == [0, 1, 2, 3]
        assert hist.effective_batch[-1] == 4.0


class TestRejoinDeterminism:
    def test_seeded_fault_and_recovery_schedule_replays_identically(self):
        plan = FaultPlan(
            events=[
                FaultEvent(FaultKind.RANK_CRASH, rank=1, step=5),
                FaultEvent(FaultKind.RANK_CRASH, rank=3, step=6),
            ]
        ).with_recovery(3)
        t1, h1 = run_growback(plan)
        t2, h2 = run_growback(plan)
        assert h1.train_loss == h2.train_loss  # bitwise, not approx
        assert h1.effective_batch == h2.effective_batch
        np.testing.assert_array_equal(
            t1.final_model.get_flat_parameters(),
            t2.final_model.get_flat_parameters(),
        )
        assert t1.group_stats["rejoins"] == t2.group_stats["rejoins"] == [1, 3]
