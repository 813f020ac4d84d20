"""Resilience tests for the I/O path: skips and error propagation.

Covers the fault-tolerance contract of the read stack: corrupt records
are skipped and counted (never crash the trainer), a failed read fails
fast, and a fatal reader exception inside the prefetch pipeline
surfaces in the consuming thread at its place in the stream without
leaking daemon threads.  (Retried reads belong to the staging tier:
``tests/io/test_staging.py``.)
"""

import threading
import time

import numpy as np
import pytest

from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.io.dataset import RecordDataset, write_dataset
from repro.io.pipeline import PrefetchPipeline
from repro.io.records import RecordCorruptError
from repro.utils.retry import RetryPolicy


def make_files(tmp_path, n=24, size=4, samples_per_file=4):
    rng = np.random.default_rng(0)
    vols = rng.standard_normal((n, size, size, size)).astype(np.float32)
    tgts = rng.random((n, 3)).astype(np.float32)
    return write_dataset(tmp_path, vols, tgts, samples_per_file=samples_per_file)


class ReadError(OSError):
    """The failure :func:`failing_reads` raises."""


def failing_reads(*bad):
    """A ``read_hook`` that raises :class:`ReadError` at the given read
    ordinals (counted across the I/O threads, in the order reads start)."""
    lock = threading.Lock()
    count = [0]

    def hook(path, nbytes):
        with lock:
            n = count[0]
            count[0] += 1
        if n in bad:
            raise ReadError(f"read #{n} of {path} failed")

    return hook


class TestRetryPolicy:
    def test_backoff_schedule(self):
        p = RetryPolicy(max_attempts=4, base_delay_s=0.01, multiplier=2.0, max_delay_s=0.03)
        assert p.delay(0) == pytest.approx(0.01)
        assert p.delay(1) == pytest.approx(0.02)
        assert p.delay(2) == pytest.approx(0.03)  # capped

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestDatasetRetry:
    """A dataset read is not retried: what fails, fails at the read."""

    def test_no_retry_by_default(self, tmp_path):
        paths = make_files(tmp_path)
        ds = RecordDataset(paths, read_hook=failing_reads(0))
        with pytest.raises(ReadError, match="read #0"):
            list(ds.batches(4, rng=0, shuffle=False))

    def test_corrupt_record_skipped_not_retried(self, tmp_path):
        paths = make_files(tmp_path)
        inj = FaultInjector(
            FaultPlan(events=[FaultEvent(FaultKind.RECORD_CORRUPT, step=1)])
        )
        inj.corrupt_record_file(paths[0])
        ds = RecordDataset(paths, strict=False)
        assert len(ds) == 23  # the corrupt record is not even counted
        total = sum(len(b[0]) for b in ds.batches(4, rng=0, shuffle=False))
        assert total == 23
        assert ds.records_skipped == 1

    def test_strict_dataset_raises_typed_error(self, tmp_path):
        paths = make_files(tmp_path)
        FaultInjector(
            FaultPlan(events=[FaultEvent(FaultKind.RECORD_CORRUPT, step=0)])
        ).corrupt_record_file(paths[1])
        with pytest.raises(RecordCorruptError) as ei:
            RecordDataset(paths)  # strict indexing hits the bad record
        assert ei.value.path == paths[1]
        assert ei.value.record_index == 0
        assert "CRC" in ei.value.reason

    def test_shard_inherits_policy(self, tmp_path):
        paths = make_files(tmp_path)
        hook = failing_reads()
        ds = RecordDataset(paths, read_hook=hook, strict=False)
        shard = ds.shard(1, 2)
        assert shard.read_hook is hook
        assert shard.strict is False

    def test_shard_reuses_the_parents_index(self, tmp_path, checksummed):
        """Sharding checksums nothing: the parent counted every record a
        moment ago.  Lengths, skipping and strictness are what a shard
        indexed from scratch has."""
        paths = make_files(tmp_path)
        FaultInjector(
            FaultPlan(events=[FaultEvent(FaultKind.RECORD_CORRUPT, step=1)])
        ).corrupt_record_file(paths[1])
        ds = RecordDataset(paths, strict=False)
        fresh = [len(RecordDataset(paths[r::2], strict=False)) for r in range(2)]
        assert fresh == [12, 11]
        checksummed.clear()  # the index passes above
        shards = [ds.shard(r, 2) for r in range(2)]
        assert checksummed == []
        assert [len(s) for s in shards] == fresh
        for shard, n in zip(shards, fresh):
            assert sum(len(x) for x, _ in shard.batches(4, rng=0, shuffle=False)) == n
        assert checksummed  # the counter counts: reading does checksum
        assert [s.records_skipped for s in shards] == [0, 1]
        assert ds.records_skipped == 0

    def test_strict_shard_raises_at_the_read(self, tmp_path):
        paths = make_files(tmp_path)
        shard = RecordDataset(paths).shard(1, 2)
        FaultInjector(
            FaultPlan(events=[FaultEvent(FaultKind.RECORD_CORRUPT, step=0)])
        ).corrupt_record_file(paths[1])
        with pytest.raises(RecordCorruptError) as ei:
            list(shard.batches(4, rng=0, shuffle=False))
        assert ei.value.path == paths[1]


class TestPipelineFaultPropagation:
    def test_error_surfaces_within_one_next(self, tmp_path):
        paths = make_files(tmp_path)
        # Both I/O threads' first read fails (reads 0 and 1), so no batch
        # can ever be produced.
        ds = RecordDataset(paths, read_hook=failing_reads(0, 1))
        pipe = PrefetchPipeline(ds, n_io_threads=2, buffer_size=4)
        it = pipe.batches(4, rng=0)
        # The consumer must see the failure on its first next() call.
        with pytest.raises(ReadError):
            next(it)

    def test_error_does_not_leak_threads(self, tmp_path):
        paths = make_files(tmp_path)
        ds = RecordDataset(paths, read_hook=failing_reads(3))
        before = threading.active_count()
        pipe = PrefetchPipeline(ds, n_io_threads=3, buffer_size=2)
        with pytest.raises(ReadError):
            for _ in pipe.batches(4, rng=0):
                pass
        deadline = time.monotonic() + 5.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == before
        assert pipe.stats.producer_errors >= 1

    def test_error_surfaces_promptly_even_with_buffered_batches(self, tmp_path):
        paths = make_files(tmp_path)
        ds = RecordDataset(paths, read_hook=failing_reads(4))
        pipe = PrefetchPipeline(ds, n_io_threads=1, buffer_size=2)
        it = pipe.batches(4, rng=0)
        consumed = 0
        with pytest.raises(ReadError):
            for _ in it:
                consumed += 1
        # 6 files, one batch each: the error is the 5th read's, and it
        # surfaces at the 5th batch — where the direct read raises it.
        assert consumed == 4

    def test_pipeline_counts_skips(self, tmp_path):
        paths = make_files(tmp_path)
        FaultInjector(
            FaultPlan(events=[FaultEvent(FaultKind.RECORD_CORRUPT, step=2)])
        ).corrupt_record_file(paths[3])
        ds = RecordDataset(paths, strict=False)
        pipe = PrefetchPipeline(ds, n_io_threads=2, buffer_size=4)
        total = sum(len(b[0]) for b in pipe.batches(4, rng=0))
        assert total == 23  # one corrupt record dropped, nothing crashed
        # Each file is read once per epoch, whatever the thread count:
        # one corrupt record is one skip.
        assert ds.records_skipped == 1
        assert pipe.stats.producer_errors == 0

    def test_fault_free_pipeline_unchanged(self, tmp_path):
        paths = make_files(tmp_path)
        ds = RecordDataset(paths)
        pipe = PrefetchPipeline(ds, n_io_threads=2, buffer_size=4)
        total = sum(len(b[0]) for b in pipe.batches(4, rng=0))
        assert total == 24
        assert ds.records_skipped == 0
        assert pipe.stats.producer_errors == 0

    def test_read_delay_fault_just_slows(self, tmp_path):
        paths = make_files(tmp_path)
        slowed = []

        def slow_store(path, nbytes):
            if not slowed:
                slowed.append(path)
                time.sleep(0.05)

        ds = RecordDataset(paths, read_hook=slow_store)
        total = sum(len(b[0]) for b in ds.batches(4, rng=0, shuffle=False))
        assert total == 24
        assert len(slowed) == 1
