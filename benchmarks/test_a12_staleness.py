"""A12 — bounded-staleness training under a 10x straggler.

Section II-C names the failure mode ("a single slow node can
significantly reduce the aggregate performance"); the ``ssgd`` backend
(:mod:`repro.comm.stale`) is the stale-synchronous mitigation: each
step closes on the fastest quorum and folds the straggler's gradients
in late, within a hard staleness bound.

The acceptance run: 4 ranks, one rank 10x slow for the first 10 global
steps (then recovered), identical seeded delay schedule on both sides.

* the fully synchronous baseline (bound 0) pays the full delay every
  slow step;
* ``ssgd`` with bound 4 must finish in at most half the virtual time,
  never exceed the bound, land within loss tolerance of the baseline,
  and the straggler monitor must quarantine the slow rank during the
  slow phase and rehabilitate it after recovery.

Everything runs on virtual time, so the table is deterministic and
comparable across commits.
"""

import numpy as np
import pytest

from benchmarks.conftest import save_report
from repro.comm.stale import StalenessConfig
from repro.core.engine import EngineConfig, TrainingEngine
from repro.core.stale_backend import StaleBackend
from repro.core.optimizer import OptimizerConfig
from repro.core.topology import tiny_16
from repro.core.trainer import InMemoryData
from repro.faults import FaultInjector, FaultPlan

N_RANKS = 4
EPOCHS = 10
N_SAMPLES = 16
STEPS = (N_SAMPLES // N_RANKS) * EPOCHS  # 40 global steps
SLOW_STEPS = 10  # straggler recovers after the first quarter of the run
BASE = 0.01
DELAY = 9 * BASE  # 10x step time while slow
OPT = OptimizerConfig(eta0=5e-3, decay_steps=50)


def make_data(n=N_SAMPLES, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, 16, 16, 16)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(n, 3)).astype(np.float32)
    return InMemoryData(x, y)


def straggler_injector():
    return FaultInjector(
        FaultPlan(seed=11).with_slow_rank(1, DELAY, n_steps=SLOW_STEPS)
    )


def run(staleness):
    backend = StaleBackend(
        tiny_16(),
        make_data(),
        optimizer_config=OPT,
        n_ranks=N_RANKS,
        staleness=staleness,
        stale_mode="ssgd",
        injector=straggler_injector(),
    )
    engine = TrainingEngine(backend, EngineConfig(epochs=EPOCHS, validate=False))
    hist = engine.run()
    return engine, hist


def test_staleness_acceptance(benchmark):
    sync_cfg = StalenessConfig(
        staleness_bound=0, quorum_fraction=1.0,
        quarantine_factor=None, base_step_time_s=BASE,
    )
    ssgd_cfg = StalenessConfig(
        staleness_bound=4, quorum_fraction=0.5, base_step_time_s=BASE,
    )
    t_sync, h_sync = run(sync_cfg)
    benchmark.pedantic(lambda: run(ssgd_cfg), rounds=1, iterations=1)
    t_ssgd, h_ssgd = run(ssgd_cfg)
    gs_sync, gs = t_sync.group_stats, t_ssgd.group_stats
    speedup = gs_sync["virtual_time_s"] / gs["virtual_time_s"]

    lines = [
        "A12: bounded-staleness ssgd vs fully synchronous, one 10x "
        f"straggler (rank 1, first {SLOW_STEPS} of {STEPS} steps)",
        f"{'backend':>10}{'virtual (s)':>13}{'final loss':>12}"
        f"{'max stale':>11}{'late folds':>12}{'quarantine':>12}",
    ]
    for label, t, h in (("sync", t_sync, h_sync), ("ssgd s=4", t_ssgd, h_ssgd)):
        g = t.group_stats
        q = ",".join(str(r) for r in g["quarantined_ranks"]) or "-"
        lines.append(
            f"{label:>10}{g['virtual_time_s']:>13.3f}{h.train_loss[-1]:>12.5f}"
            f"{g['max_staleness']:>11}{g['late_folds']:>12}{q:>12}"
        )
    lines += [
        "",
        f"virtual-time speedup: {speedup:.2f}x  "
        f"(straggler quarantined at the monitor's strike threshold, "
        f"rehabilitated after recovery: {gs['rehabilitated_ranks']})",
    ]
    save_report("a12_staleness", "\n".join(lines))

    # -- acceptance criteria ------------------------------------------------
    # The sync baseline pays the straggler's delay in full.
    assert gs_sync["virtual_time_s"] == pytest.approx(
        SLOW_STEPS * (BASE + DELAY) + (STEPS - SLOW_STEPS) * BASE, rel=0.01
    )
    # 1. ssgd with bound 4 at least halves the virtual time.
    assert speedup >= 2.0
    # 2. Final loss within tolerance of the fully synchronous run:
    #    inside the sync run's own late-training noise band (its last
    #    three epochs bounce around more than any staleness penalty).
    assert h_ssgd.train_loss[-1] <= 1.25 * max(h_sync.train_loss[-3:])
    assert h_ssgd.train_loss[-1] < 0.01 * h_ssgd.train_loss[0]
    # 3. Observed staleness never exceeds the bound.
    assert 0 < gs["max_staleness"] <= 4
    # 4. The monitor quarantined the straggler and, once the injected
    #    slowness ended, rehabilitated it.
    assert gs["quarantined_ranks"] == [1]
    assert gs["rehabilitated_ranks"] == [1]
    # The slow rank kept contributing (late or quarantined-async), it
    # was never silently dropped from the run.
    assert gs["contributions"][1] > 0
    assert gs["dropped_stale"] == 0 or gs["contributions"][1] > STEPS // 2
