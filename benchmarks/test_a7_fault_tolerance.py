"""A7 — fault-tolerance sweep: elastic SSGD under increasing failure rates.

The paper's fully synchronous design (Algorithm 2) assumes 8192
flawless nodes; Section VI notes the variability already visible at
scale.  This benchmark measures what the resilience layer buys:
seeded :class:`~repro.faults.FaultPlan` schedules inject rank crashes,
stragglers, and message corruption at increasing rates into small
elastic training runs, and the table reports completion, survivors,
recovery actions, and final held-out loss versus the fault-free
baseline.

Every plan is deterministic (same seed → same faults), so this table
is comparable across commits.
"""

import numpy as np
import pytest

from benchmarks.conftest import save_report
from repro.comm.errors import QuorumLostError
from repro.core.elastic import ElasticConfig
from repro.core.engine import EngineConfig, ThreadedBackend, TrainingEngine
from repro.core.optimizer import OptimizerConfig
from repro.core.topology import tiny_16
from repro.core.trainer import InMemoryData
from repro.faults import FaultInjector, FaultPlan

N_RANKS = 4
EPOCHS = 4
N_SAMPLES = 16
STEPS = (N_SAMPLES // N_RANKS) * EPOCHS
OPT = OptimizerConfig(eta0=5e-3, decay_steps=50)


def make_data(n=N_SAMPLES, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, 16, 16, 16)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(n, 3)).astype(np.float32)
    return InMemoryData(x, y)


def eval_loss(model, n=12, seed=1):
    data = make_data(n, seed=seed)
    return float(
        np.mean([model.validation_loss(x, y) for x, y in data.batches(1, shuffle=False)])
    )


def elastic_engine(plan, ckpt_dir, spares=0):
    backend = ThreadedBackend(
        tiny_16(),
        make_data(),
        optimizer_config=OPT,
        n_ranks=N_RANKS,
        elastic=ElasticConfig(
            timeout_s=10.0,
            quorum_fraction=0.5,
            checkpoint_dir=str(ckpt_dir),
            spares=spares,
        ),
        injector=FaultInjector(plan),
    )
    return TrainingEngine(backend, EngineConfig(epochs=EPOCHS, validate=False))


def run_at_rate(crash_rate, hang_rate, corrupt_rate, seed, tmp_path):
    plan = FaultPlan.sample(
        seed,
        N_RANKS,
        STEPS,
        crash_rate=crash_rate,
        hang_rate=hang_rate,
        hang_delay_s=0.05,
        corrupt_rate=corrupt_rate,
    )
    ckpt_dir = tmp_path / f"ckpt-{seed}-{crash_rate}-{hang_rate}-{corrupt_rate}"
    engine = elastic_engine(plan, ckpt_dir)
    try:
        engine.run()
    except QuorumLostError:
        return {"plan": plan, "completed": False}
    stats = engine.group_stats
    return {
        "plan": plan,
        "completed": True,
        "survivors": len(stats["survivors"]),
        "failed": len(stats["failed_ranks"]),
        "evicted": len(stats["evicted_ranks"]),
        "restarts": stats["restarts"],
        "retransmits": stats["retransmits"],
        "loss": eval_loss(engine.final_model),
    }


def test_fault_rate_sweep(benchmark, tmp_path):
    # (crash, hang, corrupt) per-rank per-step rates to sweep.
    rates = [
        (0.00, 0.00, 0.00),
        (0.01, 0.00, 0.00),
        (0.02, 0.01, 0.01),
        (0.05, 0.02, 0.02),
    ]
    results = {}
    for rate in rates:
        results[rate] = run_at_rate(*rate, seed=7, tmp_path=tmp_path)
    benchmark.pedantic(
        lambda: run_at_rate(0.01, 0.0, 0.0, seed=7, tmp_path=tmp_path),
        rounds=1,
        iterations=1,
    )
    base_loss = results[rates[0]]["loss"]

    lines = [
        "A7: elastic SSGD under injected faults "
        f"({N_RANKS} ranks x {EPOCHS} epochs, tiny_16, quorum 50%)",
        f"{'crash':>7}{'hang':>7}{'corrupt':>9}{'events':>8}{'done':>6}"
        f"{'alive':>7}{'evict':>7}{'restart':>9}{'retx':>6}{'loss':>9}{'vs base':>9}",
    ]
    for rate, r in results.items():
        crash, hang, corrupt = rate
        if not r["completed"]:
            lines.append(
                f"{crash:>7.2f}{hang:>7.2f}{corrupt:>9.2f}{len(r['plan']):>8}"
                f"{'no':>6}{'-':>7}{'-':>7}{'-':>9}{'-':>6}{'-':>9}{'-':>9}"
            )
            continue
        rel = (r["loss"] - base_loss) / base_loss if base_loss else float("nan")
        lines.append(
            f"{crash:>7.2f}{hang:>7.2f}{corrupt:>9.2f}{len(r['plan']):>8}"
            f"{'yes':>6}{r['survivors']:>7}{r['evicted']:>7}{r['restarts']:>9}"
            f"{r['retransmits']:>6}{r['loss']:>9.4f}{rel:>+9.1%}"
        )
    lines += [
        "",
        "done=run completed (possibly after checkpoint restarts); alive="
        "surviving ranks at the end; retx=corrupt contributions recovered "
        "by retransmission.  All fault schedules are seeded and "
        "reproducible; the fault-free row is the baseline loss.",
    ]
    save_report("a7_fault_tolerance", "\n".join(lines))

    # The fault-free run must complete untouched...
    r0 = results[rates[0]]
    assert r0["completed"] and r0["failed"] == 0 and r0["survivors"] == N_RANKS
    # ...and every swept rate must complete (that is the tentpole claim:
    # injected faults degrade, they do not crash training).
    for rate, r in results.items():
        assert r["completed"], f"run at rates {rate} did not complete"


def run_growback(plan, spares, tmp_path, tag):
    engine = elastic_engine(plan, tmp_path / f"ckpt-growback-{tag}", spares=spares)
    hist = engine.run()
    stats = engine.group_stats
    eb = hist.effective_batch
    return {
        "survivors": len(stats["survivors"]),
        "rejoins": len(stats["rejoins"]),
        "spares_used": stats["spares_used"],
        "final_eb": eb[-1],
        "mean_eb": float(np.mean(eb)),
        "loss": eval_loss(engine.final_model),
    }


def test_growback_vs_shrink_only(benchmark, tmp_path):
    """Rejoin (grow-back) recovers the effective batch that
    shrink-and-continue permanently gives up after a crash."""
    from repro.faults.plan import FaultEvent, FaultKind

    crashes = FaultPlan(
        seed=11,
        events=(
            FaultEvent(FaultKind.RANK_CRASH, rank=1, step=3),
            FaultEvent(FaultKind.RANK_CRASH, rank=3, step=5),
        ),
    )
    variants = {
        "shrink-only": (crashes, 0),
        "rejoin": (crashes.with_recovery(4), 0),
        "warm spares": (crashes, 2),
    }
    results = {
        tag: run_growback(plan, spares, tmp_path, tag.replace(" ", "-"))
        for tag, (plan, spares) in variants.items()
    }
    benchmark.pedantic(
        lambda: run_growback(crashes.with_recovery(4), 0, tmp_path, "bench"),
        rounds=1,
        iterations=1,
    )

    full_eb = float(N_RANKS)  # batch 1 per rank
    lines = [
        "A7b: grow-back vs shrink-only (2 crashes into "
        f"{N_RANKS} ranks x {EPOCHS} epochs, tiny_16)",
        f"{'variant':<14}{'alive':>7}{'rejoin':>8}{'spares':>8}"
        f"{'final eb':>10}{'mean eb':>9}{'loss':>9}",
    ]
    for tag, r in results.items():
        lines.append(
            f"{tag:<14}{r['survivors']:>7}{r['rejoins']:>8}{r['spares_used']:>8}"
            f"{r['final_eb']:>10.0f}{r['mean_eb']:>9.2f}{r['loss']:>9.4f}"
        )
    lines += [
        "",
        "eb = effective global batch (per-epoch mean of active ranks x "
        "per-rank batch).  Shrink-only ends the run permanently degraded; "
        "rejoin readmits the crashed ranks after 4 steps and warm spares "
        "replace them at the next step boundary, both restoring the full "
        "effective batch (and hence aggregate throughput).",
    ]
    save_report("a7_growback", "\n".join(lines))

    shrink, rejoin, spares = (
        results["shrink-only"], results["rejoin"], results["warm spares"]
    )
    # Shrink-only never gets the two crashed ranks back.
    assert shrink["survivors"] == N_RANKS - 2 and shrink["rejoins"] == 0
    assert shrink["final_eb"] == full_eb - 2
    # Grow-back (either flavor) ends with the full active set and the
    # full effective global batch restored.
    for r in (rejoin, spares):
        assert r["survivors"] == N_RANKS
        assert r["rejoins"] == 2
        assert r["final_eb"] == full_eb
        assert r["mean_eb"] > shrink["mean_eb"]
    assert spares["spares_used"] == 2 and rejoin["spares_used"] == 0
