"""Real processes under replayed faults: the same bits as threads.

With the same seed and fault plan, the ``process`` backend — ranks as
real OS processes, real SIGKILLs, shared-memory collectives — produces
**bitwise** identical History curves and final parameters to the thread
backend fault-free, under a crash/recovery schedule and under a
quorum-loss restart, and leaves no process or segment behind.  More
fault-free configurations are cells of the contract's engine line
(``tests/contract/test_engine_line.py``).
"""

from __future__ import annotations

import multiprocessing

import numpy as np

from repro.comm.plugin import PluginConfig
from repro.comm.process import ShmLayout
from repro.core import process_backend
from repro.core.elastic import ElasticConfig
from repro.core.engine import (
    EngineConfig,
    SteppedBackend,
    ThreadedBackend,
    TrainingEngine,
)
from repro.core.optimizer import OptimizerConfig
from repro.core.process_backend import ProcessBackend
from repro.core.topology import tiny_16
from repro.faults import FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from tests.contract import dataset

OPT = OptimizerConfig(eta0=5e-3, decay_steps=50)


def assert_bitwise_equal(h1, h2, p1, p2):
    assert h1.train_loss == h2.train_loss
    assert np.array_equal(h1.val_loss, h2.val_loss, equal_nan=True)
    assert h1.lr == h2.lr
    assert h1.effective_batch == h2.effective_batch
    assert np.array_equal(p1, p2)


def run(backend_cls, n_ranks, epochs, validate, **kwargs):
    backend = backend_cls(tiny_16(), dataset(8), optimizer_config=OPT, n_ranks=n_ranks, **kwargs)
    engine = TrainingEngine(backend, EngineConfig(epochs=epochs, validate=validate))
    history = engine.run()
    return history, engine.final_model.get_flat_parameters(), engine.group_stats


def run_distributed(backend_cls, n_ranks=2, epochs=2):
    return run(backend_cls, n_ranks, epochs, validate=True)


def run_elastic(backend_cls, plan, elastic, epochs=3, n_ranks=4):
    # Rank threads share one injector; worker processes each build
    # their own from the shipped plan.
    faults = {"plan": plan} if backend_cls is ProcessBackend else {"injector": FaultInjector(plan)}
    return run(backend_cls, n_ranks, epochs, validate=False, elastic=elastic, **faults)


class TestDeterminismGate:
    def test_process_matches_threaded_and_stepped_fault_free(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path))
        h_thr, p_thr, _ = run_distributed(ThreadedBackend)
        h_step, p_step, _ = run_distributed(SteppedBackend)
        h_proc, p_proc, stats = run_distributed(ProcessBackend)
        assert_bitwise_equal(h_thr, h_proc, p_thr, p_proc)
        assert_bitwise_equal(h_step, h_proc, p_step, p_proc)
        assert stats["backend"] == "process"
        assert stats["max_param_divergence"] == 0.0
        assert stats["reductions"] > 0
        assert stats["restarts"] == 0
        # Every worker ran to completion and exited cleanly.
        assert set(stats["exit_codes"]) == {"0.0", "1.0"}
        assert set(stats["exit_codes"].values()) == {0}

    def test_process_matches_threaded_under_sigkill_and_rejoin(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path))
        plan = FaultPlan(seed=7, events=(
            FaultEvent(kind=FaultKind.PROC_KILL, rank=1, step=2),
            FaultEvent(kind=FaultKind.RANK_RECOVER, rank=1, step=4),
        ))
        elastic = ElasticConfig(timeout_s=15.0, quorum_fraction=0.5, auto_respawn=False)
        h_thr, p_thr, s_thr = run_elastic(ThreadedBackend, plan, elastic)
        h_proc, p_proc, s_proc = run_elastic(ProcessBackend, plan, elastic)
        assert_bitwise_equal(h_thr, h_proc, p_thr, p_proc)
        # The shrink is visible in the curve, identically on both sides.
        assert h_proc.effective_batch == [4.0, 3.0, 4.0]
        for key in ("survivors", "failed_ranks", "rejoins", "resyncs"):
            assert s_thr[key] == s_proc[key], key
        # The process run fired a *real* SIGKILL, not a simulated one.
        assert s_proc["signal_kills"] == {"SIGKILL": 1}
        assert s_proc["faults_injected"]["proc_kill"] == 1
        assert s_proc["faults_injected"]["rank_recover"] == 1
        # Rank 1's first incarnation died by signal; its second exited 0.
        assert s_proc["exit_codes"]["1.1"] == 0
        assert s_proc["exit_codes"]["1.0"] < 0

    def test_process_quorum_loss_restart_matches_threaded(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path / "registry"))
        plan = FaultPlan(seed=7, events=tuple(
            FaultEvent(kind=FaultKind.PROC_KILL, rank=r, step=3) for r in (1, 2, 3)
        ))

        def elastic(ckpt):
            return ElasticConfig(
                timeout_s=15.0, quorum_fraction=0.5, auto_respawn=False,
                checkpoint_dir=str(ckpt), max_restarts=1,
            )

        h_thr, p_thr, s_thr = run_elastic(
            ThreadedBackend, plan, elastic(tmp_path / "ckpt-thr")
        )
        h_proc, p_proc, s_proc = run_elastic(
            ProcessBackend, plan, elastic(tmp_path / "ckpt-proc")
        )
        assert s_thr["restarts"] == 1
        assert s_proc["restarts"] == 1
        assert_bitwise_equal(h_thr, h_proc, p_thr, p_proc)


class TestNoLeaks:
    def test_chaos_run_leaves_no_orphans_or_segments(self, tmp_path, monkeypatch):
        """After a run with a real mid-epoch SIGKILL: every worker
        process reaped, every shared-memory segment unlinked and
        unregistered — the registry's startup sweep finds nothing."""
        from repro.comm.process import sweep_stale_segments

        registry = tmp_path / "registry"
        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(registry))
        plans = [
            FaultPlan(seed=7, events=(
                FaultEvent(kind=FaultKind.PROC_KILL, rank=1, step=2),
            )),
            FaultPlan(seed=8, events=(
                FaultEvent(kind=FaultKind.PROC_KILL, rank=2, step=1),
                FaultEvent(kind=FaultKind.PROC_KILL, rank=3, step=2),
            )),
        ]
        for plan in plans:
            run_elastic(
                ProcessBackend, plan,
                ElasticConfig(timeout_s=15.0, quorum_fraction=0.5, auto_respawn=False),
                epochs=2,
            )
            assert multiprocessing.active_children() == []
            assert sweep_stale_segments() == []
        assert not list(registry.glob("*.json"))


class TestSlotSize:
    def test_a_slot_holds_one_float32_per_parameter(self, tmp_path, monkeypatch):
        """The largest payload a collective moves is one float32 per
        parameter, fp16 training with top-k compression included, and a
        slot is that large: a larger payload fails the run in
        ``ShmLayout.write_slot``."""
        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path))
        layouts = []

        class Recorded(ShmLayout):
            def __init__(self, *args):
                super().__init__(*args)
                layouts.append(self)

        monkeypatch.setattr(process_backend, "ShmLayout", Recorded)
        backend = ProcessBackend(
            tiny_16(), dataset(8),
            optimizer_config=OptimizerConfig(eta0=5e-3, decay_steps=50, precision="fp16"),
            n_ranks=2, plugin_config=PluginConfig(compression="topk"),
        )
        engine = TrainingEngine(backend, EngineConfig(epochs=1))
        history = engine.run()
        assert len(history.train_loss) == 1 and np.isfinite(history.train_loss).all()
        assert [layout.payload_bytes for layout in layouts] == [
            4 * engine.final_model.num_parameters
        ]

