"""Deterministic-trace golden tests.

The same seed and fault plan must replay the same *event sequence* —
``Tracer.sequence()``: per-track ``(track, name, step)`` tuples with
wall clock excluded — across runs.  Two scenarios are pinned:

* an elastic run through a rank crash, quorum loss, and a checkpoint
  restart (the full driver path: rank-failed, quorum-lost, restart);
* the staging tier under injected stage failures and slow targets
  (stage / stage-fail / hedge / fallback instants).

Only *crash* faults are used: hang-driven evictions depend on real
timeouts and are legitimately timing-sensitive.
"""

import numpy as np

from repro.core.elastic import ElasticConfig
from repro.core.engine import EngineConfig, ThreadedBackend, TrainingEngine
from repro.core.optimizer import OptimizerConfig
from repro.core.topology import tiny_16
from repro.core.trainer import InMemoryData
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.io.dataset import write_dataset
from repro.io.staging import RETRY, StagingConfig, StagingManager
from repro.obs import Tracer

OPT = OptimizerConfig(eta0=5e-3, decay_steps=50)


def make_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, 16, 16, 16)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(n, 3)).astype(np.float32)
    return InMemoryData(x, y)


def traced_elastic_run(ckpt_dir):
    """One seeded elastic run: crash rank 1 at step 4 with an all-rank
    quorum, forcing a checkpoint restart.  Returns the trace sequence."""
    plan = FaultPlan(events=[FaultEvent(FaultKind.RANK_CRASH, rank=1, step=4)])
    tracer = Tracer()
    backend = ThreadedBackend(
        tiny_16(),
        make_dataset(9),
        optimizer_config=OPT,
        n_ranks=3,
        elastic=ElasticConfig(
            timeout_s=10.0,
            quorum_fraction=1.0,
            checkpoint_dir=str(ckpt_dir),
            max_restarts=2,
        ),
        injector=FaultInjector(plan),
    )
    engine = TrainingEngine(backend, EngineConfig(epochs=3, validate=False), tracer=tracer)
    engine.run()
    assert engine.group_stats["restarts"] == 1
    return tracer.sequence()


class TestElasticTraceDeterminism:
    def test_crash_restart_sequence_replays_identically(self, tmp_path):
        a = traced_elastic_run(tmp_path / "a")
        b = traced_elastic_run(tmp_path / "b")
        assert a == b

    def test_sequence_covers_failure_and_restart_events(self, tmp_path):
        seq = traced_elastic_run(tmp_path / "c")
        names = {name for _, name, _ in seq}
        assert "rank-failed" in names
        assert "quorum-lost" in names
        assert "restart" in names
        # Driver-track ordering: quorum loss precedes the restart.
        driver = [name for track, name, _ in seq if track == "driver"]
        assert driver.index("quorum-lost") < driver.index("restart")


def traced_staging_run(tmp_path, name):
    """Stage + read a small shard set under injected storage faults;
    returns (trace sequence with virtual timestamps, string event log)."""
    rng = np.random.default_rng(0)
    vols = rng.standard_normal((8, 1, 4, 4, 4)).astype(np.float32)
    tgts = rng.random((8, 3)).astype(np.float32)
    files = write_dataset(tmp_path / f"src-{name}", vols, tgts, samples_per_file=2)
    # stage ops 0-3 are stage_all's four shards (ops 0-2 fail every
    # attempt, terminally); op 4 is the first read's stage-in of its
    # miss, which also fails -> a fallback read.  Reads 1 and 3 hit a
    # slow target and hedge.
    attempts = RETRY.max_attempts
    plan = FaultPlan(
        seed=5,
        events=(
            FaultEvent(FaultKind.STAGE_FAIL, step=0, repeats=attempts),
            FaultEvent(FaultKind.STAGE_FAIL, step=1, repeats=attempts),
            FaultEvent(FaultKind.STAGE_FAIL, step=2, repeats=attempts),
            FaultEvent(FaultKind.STAGE_FAIL, step=4, repeats=attempts),
            FaultEvent(FaultKind.TARGET_SLOW, step=1, delay_s=0.5),
            FaultEvent(FaultKind.TARGET_SLOW, step=3, delay_s=0.5),
        ),
    )
    tracer = Tracer()
    mgr = StagingManager(
        tmp_path / f"bb-{name}",
        config=StagingConfig(hedge_budget_s=0.05),
        seed=7,
        injector=FaultInjector(plan),
        tracer=tracer,
    )
    mgr.stage_all(files)
    for f in files:
        mgr.read(f)
    sequence = [
        (e.name, e.args["file"], e.args["vts"]) for e in tracer.ordered()
    ]
    return sequence, list(mgr.events)


class TestStagingTraceDeterminism:
    def test_hedge_and_fallback_sequence_replays_identically(self, tmp_path):
        a_seq, a_log = traced_staging_run(tmp_path, "a")
        b_seq, b_log = traced_staging_run(tmp_path, "b")
        assert a_seq == b_seq  # names, files, and virtual timestamps
        assert a_log == b_log

    def test_instants_mirror_the_string_log(self, tmp_path):
        seq, log = traced_staging_run(tmp_path, "c")
        assert [f"{name}:{detail}" for name, detail, _ in seq] == log
        kinds = {name for name, _, _ in seq}
        assert "stage-fail" in kinds
        assert "hedge" in kinds
        assert "fallback" in kinds
