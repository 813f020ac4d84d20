"""Names that left the tree stay out of it.

Each row is a deletion a PR made on purpose and the directories it must
not creep back into (and, optionally, the files that keep it); a match
fails here (tier-1 and CI) before it reaches review.  These were three
``! grep`` steps in three CI jobs.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

REMOVED = {
    # The kernels count their own passes (repro.primitives.conv3d.set_metrics)
    # and Conv3D calls them directly (docs/architecture.md, "Kernel
    # dispatch"); the one-family registry, its family record and the
    # counting wrapper that restated the kernels' signatures.  Last present
    # at 7a60e70.
    "kernel registry and its counting wrapper": (
        r"ConvImpl|registry\.GEMM|_instrumented|primitives\.registry|primitives import registry",
        ("src", "examples", "benchmarks"),
    ),
    # One gradient message: every rank flattens its gradients once
    # (repro.comm.plugin.gradient_message) and a thread or process rank
    # averages them in one allreduce; the plugin object, its chunk loop,
    # lifecycle and stats, and the collectives nothing called.  Last
    # present at 0ed57b7.
    "plugin object and unused collectives": (
        r"MLPlugin|PluginStats|threads_per_team|n_chunks|broadcast_parameters|\.barrier\("
        r"|\.gather\(|allgather\(",
        ("src", "examples", "benchmarks"),
    ),
    # The engine counts once: RankContext.timed_stage writes each stage
    # window into the run's metrics registry and tracer, and the loop adds
    # each step's samples to engine.records (docs/observability.md); the
    # per-rank stage timer, the callback's delta mirrors of it and of the
    # sample count, and the callback that only published group_stats.
    # Last present at 044b46b.
    "stage-timer mirrors": (
        r"StageTimer|StageRecord|_obs_timer_absorbed|_obs_samples_absorbed"
        r"|GroupStatsCollector|samples_seen",
        ("src", "examples", "benchmarks"),
    ),
    # A read is retried only by the staging tier and slowed only by a
    # read_hook or TARGET_SLOW (docs/resilience.md); the dataset's own
    # retry, the read-keyed fault kinds and the injector's read hook had
    # only tests for callers.  Last present at 044b46b.
    "read-fault path": (
        r"READ_ERROR|READ_DELAY|InjectedReadError|call_with_retry|read_retries"
        r"|_hook_takes_attempt",
        ("src", "examples", "benchmarks"),
    ),
    # One epoch stream: every rank context draws through one RankStream
    # (docs/architecture.md, "The I/O path"); the per-context stream
    # variants, their burn-in and skip counters.  Last present at d68be9a.
    "per-context batch streams": (
        r"burn_in|_skip_next_stream|_next_batch|start_stream|self\._iters\b",
        ("src", "examples", "benchmarks"),
    ),
    # A serving replica fails only by crashing, which marks it DEAD for
    # good, so its breaker could never trip (docs/serving.md); staging's
    # per-target breakers (repro.utils.breaker) stay.  Last present at d68be9a.
    "serving replica breakers": (
        r"BREAKER_THRESHOLD|BREAKER_RESET_S|pool\.breaker_states|replica\.breaker|\br\.breaker",
        ("src", "examples", "benchmarks"),
    ),
    # Every option has a caller (tests/test_reachability.py): the serve
    # weight path, the serve straggle branch, staging's tier-latency model
    # and the read hook built on it, stale eviction, and the settable values
    # only tests set.  Last present at b84e10d.
    "test-only policy fields and the paths they gated": (
        r"weights_path|_weight_load_s|straggler_threshold_s|feasibility_margin|time_scale"
        r"|backing_spec|bb_spec|_tier_latency|\bread_time_s\(|make_read_hook|variability_sigma"
        r"|stage_on_miss|retry_jitter|evict_after|_maybe_evict|ewma_alpha|quarantine_after"
        r"|rehab_factor|rehab_after|error_feedback|make_compressors|output_activation|field_rms"
        r"|per_call_seconds",
        ("src", "examples", "benchmarks"),
    ),
    # One vocabulary: the model is a chain of five layer kinds trained in
    # fp32 without batch norm (Section III-A), on one kernel family
    # (docs/architecture.md); the tape's general ops, batch norm, the
    # int8/int4 kernels, the registry's name table and Flatten's axis knob
    # were reached by no CLI verb, serving path or bench workload.  Last
    # present at 8b0ee77.
    "general tape ops, batch norm, quantized kernels, kernel name table": (
        r"QuantCache|quantize_groupwise|set_default_impl|register_impl|available_impls"
        r"|count_fallback|batch_norm|BatchNorm|unbroadcast|mae_loss|glorot_uniform|start_axis",
        ("src", "examples", "benchmarks"),
    ),
    # One CRC-32: records, checkpoints, the wire, resync payloads and burst-
    # buffer placement call repro.utils.checksum.crc32 (docs/resilience.md,
    # trust boundaries), the one place that may fall back to zlib's.
    "a second CRC-32 call": (r"zlib\.crc32", ("src",), ("src/repro/utils/checksum.py",)),
    # Every module earns its place (tests/test_reachability.py): the parameter
    # server, the Horovod reducer, the hyperparameter search, the numerical-
    # health watchdog and the halo finder were reached only by their own
    # tests, and the hooks and options below only by them or with one value
    # outside tests.  Last present at 1c35cf7.
    "test-only modules and single-value options": (
        r"grpc_baseline|ParameterServer|HorovodLike|comm\.horovod|aggregator_factory"
        r"|HyperparameterSearch|NumericalHealthWatchdog|fof_halos|HaloCatalog|lr_scale"
        r"|last_grads|prune_checkpoints|keep_last|checkpoint_every_epochs|restart_backoff"
        r"|restart_jitter",
        ("src", "examples", "benchmarks"),
    ),
    # One membership: quorum, fencing, spares and admission are decided once,
    # in repro.comm.membership (docs/resilience.md, "Membership rules"); the
    # per-transport copies and the spare reserved when a rank dies.
    "second membership": (
        r"_check_quorum|_reserve_spare|finish_locked|admit_locked|_mark_peer_dead|_active_count"
        r"|respawn_queue|has_pending_respawns|_G_SPARES_LEFT|comm\.admission",
        ("src",),
    ),
    # One helper thread: repro.utils.cores holds it and its split rule for
    # convolutions and the untaped batched forward alike
    # (docs/architecture.md); the kernels' private copy and its thread name.
    "second helper-thread scheme": (
        r"_beside_helper|_spare_core|_helper_pays|conv-helper",
        ("src", "examples", "benchmarks"),
    ),
    # PR 24, one epoch stream: PrefetchPipeline is RecordDataset.stream read
    # ahead (docs/architecture.md); the per-thread replay's re-seeding, its
    # queue protocol and the per-batch delay knob (a slow store is a read_hook).
    "whole-epoch replay pipeline": (
        r"sample_delay_s|_ProducerError|_SENTINEL|epoch_seed",
        ("src", "examples", "benchmarks"),
    ),
    # PR 23, one thread group: `--mode threaded` is the elastic group at
    # quorum == size (docs/resilience.md); the barrier group, its backend's
    # sibling and the group's second name.
    "barrier thread group, second thread backend": (
        r"ElasticBackend|ElasticThreadedGroup|_ThreadRankComm|_SharedState|comm\.threaded"
        r"|threading\.Barrier",
        ("src", "examples", "benchmarks"),
    ),
    # PR 20, one front door: TrainingEngine over a backend is the only way
    # to start a run (docs/architecture.md).
    "trainer shims": (
        r"DistributedTrainer|ElasticTrainer|TrainerConfig|DistributedConfig|run_elastic"
        r"|\bTrainer\(",
        ("src", "examples", "benchmarks"),
    ),
    # PR 19: the paper's histogramdd call is the specification under
    # tests/cosmo; what runs computes each particle's cell (docs/physics.md).
    "histogramdd call": (r"histogramdd\(", ("src",)),
    # PR 18, one convolution family: the blocked kernels, layout tags and
    # autotuner (docs/architecture.md).
    "second kernel family, layout system, autotuner": (
        r"autotune|to_layout|native_layout|ReorderCache|REPRO_AUTOTUNE|nCdhw16c",
        ("src",),
    ),
}


def source_lines(directory):
    for path in sorted((ROOT / directory).rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            text = path.read_text(encoding="utf-8", errors="ignore")
            for number, line in enumerate(text.splitlines(), 1):
                yield f"{path.relative_to(ROOT)}:{number}", line


@pytest.mark.parametrize("what", REMOVED)
def test_removed_names_stay_removed(what):
    pattern, directories, *kept_in = REMOVED[what]
    kept_in = kept_in[0] if kept_in else ()
    assert all((ROOT / d).is_dir() for d in directories)
    assert all((ROOT / f).is_file() for f in kept_in)
    found = [
        f"{where}: {line.strip()}"
        for d in directories
        for where, line in source_lines(d)
        if re.search(pattern, line) and where.rsplit(":", 1)[0] not in kept_in
    ]
    assert not found, f"{what} is back:\n" + "\n".join(found)


def test_the_scan_sees_what_grep_saw(tmp_path, monkeypatch):
    """The scan bites: a reintroduced name in a scanned directory is found."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "shim.py").write_text("x = 1\ntrainer = Trainer(config)\n")
    monkeypatch.setattr("tests.test_removed_names_stay_removed.ROOT", tmp_path)
    hits = [where for where, line in source_lines("src") if re.search(r"\bTrainer\(", line)]
    assert hits == ["src/shim.py:2"]
