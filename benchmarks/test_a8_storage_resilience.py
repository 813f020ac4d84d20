"""A8 — storage-resilience sweep: training through a faulty staging tier.

Section IV-C stages the 1.4 TB dataset onto DataWarp before training;
Section VI-A shows the I/O tier is what limits scale.  At 8192 nodes
that tier fails routinely — aborted stage-ins, slow burst-buffer
targets, evicted allocations — so this benchmark measures what
``repro.io.staging`` buys: seeded :class:`~repro.faults.FaultPlan`
schedules inject ``STAGE_FAIL`` / ``TARGET_SLOW`` / ``BB_EVICT`` (plus
on-disk record corruption) at increasing rates into a real record-file
training run, and the table reports epoch time, skipped records, and
the staging tier's recovery actions (hedges, breaker trips, fallbacks)
versus the fault-free baseline.

The fault-free staging run must match the direct-read run **bitwise**
(same final loss to the last ulp): a healthy staging tier is invisible.
Every faulted run must complete with bounded skips — storage faults
degrade training, they do not crash it.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import save_report
from repro.core.engine import EngineConfig, LocalBackend, TrainingEngine
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer, OptimizerConfig
from repro.core.topology import tiny_16
from repro.faults import FaultInjector, FaultPlan
from repro.io.dataset import RecordDataset, write_dataset
from repro.io.pipeline import PrefetchPipeline
from repro.io.staging import StagingConfig, StagingManager
from repro.utils.rng import new_rng

N_SAMPLES = 24
SAMPLES_PER_FILE = 4
N_FILES = N_SAMPLES // SAMPLES_PER_FILE
EPOCHS = 2
OPT = OptimizerConfig(eta0=5e-3, decay_steps=N_SAMPLES * EPOCHS)


@pytest.fixture(scope="module")
def record_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("a8-data")
    rng = np.random.default_rng(0)
    vols = rng.standard_normal((N_SAMPLES, 1, 16, 16, 16)).astype(np.float32)
    tgts = rng.uniform(0.2, 0.8, size=(N_SAMPLES, 3)).astype(np.float32)
    return write_dataset(root, vols, tgts, samples_per_file=SAMPLES_PER_FILE)


def train_through(dataset, seed=0):
    """Train tiny_16 for EPOCHS over ``dataset`` via the prefetch
    pipeline."""
    pipe = PrefetchPipeline(dataset, n_io_threads=1, buffer_size=4)
    model = CosmoFlowModel(tiny_16(), seed=seed)
    backend = LocalBackend(
        model, CosmoFlowOptimizer(model.parameter_arrays(), OPT), pipe, rng=new_rng(seed + 1)
    )
    engine = TrainingEngine(backend, EngineConfig(epochs=EPOCHS, validate=False))
    t0 = time.perf_counter()
    hist = engine.run()
    return hist, time.perf_counter() - t0


def run_at_rate(
    record_files, tmp_path, name, stage_fail, target_slow, bb_evict, corrupt=0
):
    reads = N_FILES * (EPOCHS + 2)  # epoch reads + re-stage headroom
    plan = FaultPlan.sample(
        11,
        1,
        0,
        stage_fail_rate=stage_fail,
        n_stage_ops=2 * reads,
        target_slow_rate=target_slow,
        target_slow_s=0.2,
        bb_evict_rate=bb_evict,
        n_staged_reads=reads,
    )
    if corrupt:
        # Bit-rot `corrupt` records of the first shard on disk (in a
        # private copy) so the skipped-record axis is exercised too.
        import shutil

        from repro.faults.plan import FaultEvent, FaultKind

        src_dir = tmp_path / f"src-{name}"
        src_dir.mkdir()
        record_files = [
            Path(shutil.copy2(p, src_dir / p.name)) for p in record_files
        ]
        rot = FaultInjector(
            FaultPlan(
                seed=11,
                events=tuple(
                    FaultEvent(FaultKind.RECORD_CORRUPT, step=i) for i in range(corrupt)
                ),
            )
        )
        assert rot.corrupt_record_file(record_files[0]) == corrupt
    injector = FaultInjector(plan)
    manager = StagingManager(
        tmp_path / f"bb-{name}",
        config=StagingConfig(
            hedge_budget_s=0.05, breaker_threshold=2, breaker_reset_s=0.5
        ),
        seed=5,
        injector=injector,
    )
    manager.stage_all(record_files)
    dataset = RecordDataset(record_files, strict=False, staging=manager)
    hist, elapsed = train_through(dataset)
    s = manager.stats
    return {
        "plan": plan,
        "loss": hist.train_loss[-1],
        "time": elapsed,
        "skipped": dataset.records_skipped,
        "hedges": s.hedged_reads,
        "hedge_wins": s.hedge_wins,
        "trips": s.breaker_trips,
        "fallbacks": s.fallback_reads,
        "retries": s.stage_retries,
        "evictions": s.evictions,
        "restages": s.restages,
    }


def test_storage_fault_sweep(benchmark, record_files, tmp_path):
    # Baseline: no staging tier at all (direct backing-store reads).
    direct_hist, _ = train_through(RecordDataset(record_files))

    # (stage_fail, target_slow, bb_evict, corrupt records) to sweep.
    rates = [
        ("none", 0.00, 0.00, 0.00, 0),
        ("low", 0.10, 0.10, 0.02, 0),
        ("mid", 0.25, 0.25, 0.05, 1),
        ("high", 0.40, 0.40, 0.10, 2),
    ]
    results = {}
    for name, *rate in rates:
        results[name] = run_at_rate(record_files, tmp_path, name, *rate)
    benchmark.pedantic(
        lambda: run_at_rate(record_files, tmp_path, "bench", 0.10, 0.10, 0.02),
        rounds=1,
        iterations=1,
    )

    base = results["none"]
    lines = [
        "A8: training through a faulty burst-buffer staging tier "
        f"({N_FILES} shards x {EPOCHS} epochs, tiny_16, hedge budget 50 ms, "
        "breaker threshold 2)",
        f"{'rates s/t/e':>14}{'events':>8}{'loss':>9}{'time s':>8}{'skip':>6}"
        f"{'hedge':>7}{'won':>5}{'trip':>6}{'fall':>6}{'retry':>7}{'evict':>7}"
        f"{'restage':>9}",
    ]
    for (name, sf, ts, be, _), r in zip(rates, results.values()):
        lines.append(
            f"{sf:>5.2f}/{ts:>4.2f}/{be:>4.2f}{len(r['plan']):>7}"
            f"{r['loss']:>9.4f}{r['time']:>8.2f}{r['skipped']:>6}"
            f"{r['hedges']:>7}{r['hedge_wins']:>5}{r['trips']:>6}"
            f"{r['fallbacks']:>6}{r['retries']:>7}{r['evictions']:>7}"
            f"{r['restages']:>9}"
        )
    lines += [
        "",
        "s/t/e = STAGE_FAIL / TARGET_SLOW / BB_EVICT rates; hedge=reads "
        "duplicated against the backing store past the latency budget "
        "(won=the hedge was faster); trip=circuit-breaker trips; "
        "fall=degraded direct backing-store reads; restage=quarantined "
        "copies re-staged.  All schedules seeded; the fault-free row is "
        "bitwise identical to direct reads.",
    ]
    save_report("a8_storage_resilience", "\n".join(lines))

    # A healthy staging tier is invisible: bitwise-identical training.
    assert results["none"]["loss"] == direct_hist.train_loss[-1]
    assert results["none"]["skipped"] == 0 and results["none"]["fallbacks"] == 0
    # Graceful degradation: every faulted run completes with bounded
    # skips (nothing silently lost beyond what the injector corrupted)
    # and visible recovery work.
    for (name, _, _, _, corrupt), r in zip(rates, results.values()):
        assert r["skipped"] <= corrupt * (EPOCHS + 1), f"{name}: unbounded record loss"
        assert np.isfinite(r["loss"])
        if corrupt:
            assert r["skipped"] >= corrupt, f"{name}: corruption went uncounted"
    # Skipping a few corrupt records reshuffles batches, so the loss
    # legitimately drifts — it must stay the same order of magnitude,
    # not collapse or blow up.
    assert results["high"]["loss"] < 10 * base["loss"]


def test_staging_decisions_deterministic(record_files, tmp_path):
    """Identical seed + plan ⇒ identical decision log, stats, and loss."""

    def once(tag):
        plan = FaultPlan.sample(
            13, 1, 0,
            stage_fail_rate=0.2, n_stage_ops=40,
            target_slow_rate=0.2, target_slow_s=0.2,
            bb_evict_rate=0.05, n_staged_reads=40,
        )
        manager = StagingManager(
            tmp_path / f"det-{tag}",
            config=StagingConfig(
                hedge_budget_s=0.05, breaker_threshold=2, breaker_reset_s=0.5
            ),
            seed=5,
            injector=FaultInjector(plan),
        )
        manager.stage_all(record_files)
        dataset = RecordDataset(record_files, strict=False, staging=manager)
        hist, _ = train_through(dataset)
        return manager.events, manager.stats.as_dict(), hist.train_loss

    events_a, stats_a, loss_a = once("a")
    events_b, stats_b, loss_b = once("b")
    assert events_a == events_b
    assert stats_a == stats_b
    assert loss_a == loss_b
