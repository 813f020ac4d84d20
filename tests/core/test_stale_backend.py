"""End-to-end tests for the bounded-staleness training backends
(``mode="ssgd"`` / ``"sagn"``): bitwise equivalence to the synchronous
baselines at bound 0 over four ranks, the group's report, seeded
straggler replay, monitor lifecycle, and composition with gradient
compression.  More bound-0 configurations are cells of the contract's
engine line (``tests/contract/test_engine_line.py``)."""

import numpy as np
import pytest

from repro.comm.plugin import PluginConfig
from repro.comm.stale import StalenessConfig
from repro.core.engine import EngineConfig, SteppedBackend, ThreadedBackend, TrainingEngine
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import OptimizerConfig
from repro.core.stale_backend import StaleBackend
from repro.core.topology import tiny_16
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from tests.contract import dataset


OPT = OptimizerConfig(eta0=5e-3, decay_steps=50)


def run_engine(backend_cls=StaleBackend, *, epochs=2, n=16, ranks=4, compression="none",
               validate=False, batch_size=1, **backend_kwargs):
    backend = backend_cls(
        tiny_16(),
        dataset(n),
        val_data=dataset(4, seed=9) if validate else None,
        optimizer_config=OPT,
        n_ranks=ranks,
        plugin_config=PluginConfig(compression=compression),
        **backend_kwargs,
    )
    config = EngineConfig(epochs=epochs, validate=validate, batch_size=batch_size)
    engine = TrainingEngine(backend, config)
    hist = engine.run()
    return engine, hist


SYNC_STALENESS = StalenessConfig(staleness_bound=0, quarantine_factor=None)


class TestSyncEquivalence:
    """``ssgd`` with bound 0 and no faults is the synchronous run,
    bitwise."""

    def test_bitwise_equal_to_stepped_and_threaded(self):
        t_ssgd, h_ssgd = run_engine(stale_mode="ssgd", staleness=SYNC_STALENESS, validate=True)
        t_step, h_step = run_engine(SteppedBackend, validate=True)
        t_thr, h_thr = run_engine(ThreadedBackend, validate=True)
        assert h_ssgd.train_loss == h_step.train_loss == h_thr.train_loss
        assert h_ssgd.val_loss == h_step.val_loss == h_thr.val_loss
        p_ssgd = t_ssgd.final_model.parameter_arrays()
        for other in (t_step, t_thr):
            for a, b in zip(p_ssgd, other.final_model.parameter_arrays()):
                assert np.array_equal(a, b)

    def test_sagn_window_one_also_bitwise(self):
        cfg = StalenessConfig(staleness_bound=0, window=1, quarantine_factor=None)
        t_sagn, h_sagn = run_engine(stale_mode="sagn", staleness=cfg)
        t_step, h_step = run_engine(SteppedBackend)
        assert h_sagn.train_loss == h_step.train_loss
        for a, b in zip(
            t_sagn.final_model.parameter_arrays(),
            t_step.final_model.parameter_arrays(),
        ):
            assert np.array_equal(a, b)

    def test_default_staleness_config_attached(self):
        backend = StaleBackend(tiny_16(), dataset(4))
        assert isinstance(backend.staleness, StalenessConfig)

    def test_group_stats_published(self):
        t, _ = run_engine(stale_mode="ssgd", staleness=SYNC_STALENESS)
        gs = t.group_stats
        assert gs["mode"] == "ssgd"
        assert gs["max_staleness"] == 0
        assert gs["late_folds"] == 0
        assert gs["contributions"] == [8, 8, 8, 8]  # 4 steps/epoch × 2 epochs
        assert gs["hangs_injected"] == 0
        assert gs["virtual_time_s"] > 0


class TestGroupedPass:
    def test_starters_run_as_one_pass(self, monkeypatch):
        """The ranks that start a step run their batches as the groups
        of one pass, like stepped ranks: 3 starters, one call."""
        calls = []
        real = CosmoFlowModel.group_loss_and_gradients

        def counting(model, x, y, sizes=None):
            calls.append(sizes)
            return real(model, x, y, sizes)

        monkeypatch.setattr(CosmoFlowModel, "group_loss_and_gradients", counting)
        run_engine(stale_mode="ssgd", staleness=SYNC_STALENESS,
                   epochs=1, n=3, ranks=3)
        assert calls == [[1, 1, 1]]


class TestStragglerRuns:
    def straggler_injector(self, delay=0.09, steps=6, seed=7):
        return FaultInjector(FaultPlan(seed=seed).with_slow_rank(1, delay, n_steps=steps))

    def test_bound_respected_and_late_folds_recorded(self):
        cfg = StalenessConfig(staleness_bound=4, quorum_fraction=0.5,
                              quarantine_factor=None)
        t, hist = run_engine(
            stale_mode="ssgd", staleness=cfg, epochs=3,
            injector=self.straggler_injector(),
        )
        gs = t.group_stats
        assert 0 < gs["max_staleness"] <= 4
        assert gs["late_folds"] > 0
        assert gs["hangs_injected"] > 0
        assert len(hist.train_loss) == 3
        assert np.isfinite(hist.train_loss[-1])

    def test_seeded_stale_run_replays_bitwise(self):
        def once():
            cfg = StalenessConfig(staleness_bound=4, quorum_fraction=0.5)
            t, hist = run_engine(
                stale_mode="ssgd", staleness=cfg, epochs=2,
                injector=self.straggler_injector(),
            )
            return hist, t.final_model.parameter_arrays(), t.group_stats

        h1, p1, s1 = once()
        h2, p2, s2 = once()
        assert h1.train_loss == h2.train_loss
        for a, b in zip(p1, p2):
            assert np.array_equal(a, b)
        assert s1 == s2

    def test_quarantine_and_rehabilitation_lifecycle(self):
        # Rank 1 is ~10x slow for the first 10 global steps, then
        # recovers: the monitor must quarantine it and readmit it.
        cfg = StalenessConfig(staleness_bound=4, quorum_fraction=0.5)
        t, _ = run_engine(
            stale_mode="ssgd", staleness=cfg, epochs=10,
            injector=self.straggler_injector(steps=10),
        )
        gs = t.group_stats
        assert gs["quarantined_ranks"] == [1]
        assert gs["rehabilitated_ranks"] == [1]
        assert gs["quarantines"] >= 1
        assert gs["rehabs"] >= 1

    def test_sagn_straggler_run(self):
        cfg = StalenessConfig(staleness_bound=4, quorum_fraction=0.5,
                              window=2, quarantine_factor=None)
        t, hist = run_engine(
            stale_mode="sagn", staleness=cfg, epochs=3,
            injector=self.straggler_injector(),
        )
        gs = t.group_stats
        assert gs["mode"] == "sagn"
        assert gs["max_staleness"] <= 4
        assert np.isfinite(hist.train_loss[-1])


@pytest.mark.parametrize("n", [12, 10], ids=["even", "uneven"])
class TestBatchTwo:
    """A per-rank batch of 2 over 3 ranks: 12 samples are shards of 4,
    10 are shards of 4, 3 and 3 — two steps an epoch either way."""

    def test_straggler_run_completes(self, n):
        cfg = StalenessConfig(staleness_bound=4, quorum_fraction=0.5, quarantine_factor=None)
        injector = FaultInjector(FaultPlan(seed=7).with_slow_rank(1, 0.09, n_steps=6))
        t, hist = run_engine(
            stale_mode="ssgd", staleness=cfg, epochs=3, n=n, ranks=3,
            batch_size=2, injector=injector,
        )
        assert len(hist.train_loss) == 3
        assert np.isfinite(hist.train_loss[-1])
        assert t.group_stats["hangs_injected"] > 0


class TestCompression:
    def test_compression_stats_reported(self):
        t, _ = run_engine(
            stale_mode="ssgd", staleness=SYNC_STALENESS, compression="fp16"
        )
        assert t.group_stats.get("compression") == "fp16"
