"""Delay-fault coverage: ``with_slow_rank`` plan derivation,
``FaultPlan.validate`` hardening for delay-carrying events, and
``RANK_HANG`` behavior across the threaded-elastic and process
backends."""

import threading

import numpy as np
import pytest

from repro.core.elastic import ElasticConfig
from repro.core.engine import EngineConfig, ThreadedBackend, TrainingEngine
from repro.core.optimizer import OptimizerConfig
from repro.core.process_backend import ProcessBackend
from repro.core.topology import tiny_16
from repro.core.trainer import InMemoryData
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from tests.conftest import join_rank_threads

OPT = OptimizerConfig(eta0=5e-3, decay_steps=50)


def make_dataset(n=8, seed=0, size=16):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, size, size, size)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(n, 3)).astype(np.float32)
    return InMemoryData(x, y)


class ReleasableHang(FaultInjector):
    """Stalls on an event instead of the engine's sleep, so a hung rank
    thread can be let go instead of outliving its test."""

    def __init__(self, plan, release: threading.Event):
        super().__init__(plan)
        self.release = release

    def hang_delay(self, rank, step):
        stall = super().hang_delay(rank, step)
        if stall > 0:
            self.release.wait(stall)
        return 0.0


def run_two_ranks(backend_cls=ThreadedBackend, elastic=None, **faults):
    backend = backend_cls(
        tiny_16(),
        make_dataset(8),
        optimizer_config=OPT,
        n_ranks=2,
        elastic=elastic or ElasticConfig(timeout_s=10.0),
        **faults,
    )
    engine = TrainingEngine(backend, EngineConfig(epochs=2, validate=False))
    hist = engine.run()
    return engine, hist


class TestWithSlowRank:
    def test_derives_hang_schedule(self):
        plan = FaultPlan(seed=3).with_slow_rank(1, 0.05, n_steps=4, start_step=2)
        assert [e.step for e in plan.events] == [2, 3, 4, 5]
        assert all(e.kind is FaultKind.RANK_HANG for e in plan.events)
        assert all(e.rank == 1 and e.delay_s == 0.05 for e in plan.events)

    def test_rate_subsamples_deterministically(self):
        a = FaultPlan(seed=3).with_slow_rank(0, 0.05, n_steps=100, rate=0.3)
        b = FaultPlan(seed=3).with_slow_rank(0, 0.05, n_steps=100, rate=0.3)
        assert a.events == b.events
        assert 10 < len(a.events) < 50  # ~30 of 100
        c = FaultPlan(seed=4).with_slow_rank(0, 0.05, n_steps=100, rate=0.3)
        assert c.events != a.events

    def test_preserves_existing_events(self):
        base = FaultPlan(seed=1, events=(
            FaultEvent(FaultKind.RANK_CRASH, rank=2, step=5),
        ))
        plan = base.with_slow_rank(0, 0.01, n_steps=2)
        assert plan.events[0].kind is FaultKind.RANK_CRASH
        assert len(plan.events) == 3

    @pytest.mark.parametrize(
        "kw",
        [
            {"delay_s": 0.0},
            {"delay_s": -0.1},
            {"n_steps": 0},
            {"rate": 0.0},
            {"rate": 1.5},
            {"start_step": -1},
        ],
    )
    def test_bad_arguments(self, kw):
        args = {"rank": 0, "delay_s": 0.01, "n_steps": 3}
        args.update(kw)
        with pytest.raises(ValueError):
            FaultPlan(seed=1).with_slow_rank(
                args["rank"], args["delay_s"], args["n_steps"],
                rate=args.get("rate", 1.0), start_step=args.get("start_step", 0),
            )


class TestValidateDelayEvents:
    @pytest.mark.parametrize(
        "event",
        [
            FaultEvent(FaultKind.RANK_HANG, rank=0, step=1),
            FaultEvent(FaultKind.TARGET_SLOW, step=1),
            FaultEvent(FaultKind.TARGET_SLOW, rank=1, step=1),
            FaultEvent(FaultKind.REPLICA_SLOW, step=1),
        ],
    )
    def test_zero_delay_flagged(self, event):
        problems = FaultPlan(events=(event,)).validate(n_ranks=2)
        assert len(problems) == 1
        assert "delay_s=0" in problems[0]
        assert event.kind.value in problems[0]

    def test_positive_delay_passes(self):
        plan = FaultPlan(seed=1).with_slow_rank(1, 0.05, n_steps=3)
        assert plan.validate(n_ranks=2) == []

    def test_out_of_range_hang_rank_flagged(self):
        plan = FaultPlan(seed=1).with_slow_rank(5, 0.05, n_steps=2)
        problems = plan.validate(n_ranks=4)
        assert len(problems) == 2  # one per derived event
        assert all("rank 5" in p for p in problems)

    def test_zero_delay_and_bad_rank_both_reported(self):
        plan = FaultPlan(events=(
            FaultEvent(FaultKind.RANK_HANG, rank=9, step=0, delay_s=0.0),
        ))
        problems = plan.validate(n_ranks=2)
        assert len(problems) == 2


class TestThreadedElasticDelays:
    """Small ``RANK_HANG`` delays under the threaded-elastic backend:
    the rank sleeps, nothing else changes — numerics stay bitwise
    identical to the fault-free run."""

    def test_small_delay_is_numerically_invisible(self):
        t_ref, h_ref = run_two_ranks()
        plan = FaultPlan(seed=1).with_slow_rank(1, 0.02, n_steps=3)
        inj = FaultInjector(plan)
        t_slow, h_slow = run_two_ranks(injector=inj)
        assert inj.fired[FaultKind.RANK_HANG] == 3
        assert h_slow.train_loss == h_ref.train_loss
        assert np.array_equal(
            t_slow.final_model.get_flat_parameters(),
            t_ref.final_model.get_flat_parameters(),
        )
        assert t_slow.group_stats["evicted_ranks"] == []

    def test_persistent_slow_rank_evicted_on_timeout(self):
        plan = FaultPlan(seed=1).with_slow_rank(1, 2.0, n_steps=1, start_step=2)
        release = threading.Event()
        try:
            t, hist = run_two_ranks(
                injector=ReleasableHang(plan, release),
                elastic=ElasticConfig(timeout_s=0.3),
            )
        finally:
            release.set()
            assert join_rank_threads() == []
        assert t.group_stats["evicted_ranks"] == [1]
        assert t.group_stats["survivors"] == [0]
        assert len(hist.train_loss) == 2


class TestProcessDelays:
    def test_hang_fires_in_real_process(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path))
        plan = FaultPlan(seed=1).with_slow_rank(1, 0.02, n_steps=2)
        engine, hist = run_two_ranks(
            ProcessBackend, elastic=ElasticConfig(timeout_s=15.0), plan=plan
        )
        stats = engine.group_stats
        assert stats["backend"] == "process"
        assert stats["faults_injected"].get("rank_hang", 0) == 2
        assert stats["evicted_ranks"] == []
        assert len(hist.train_loss) == 2
        assert np.isfinite(hist.train_loss[-1])
