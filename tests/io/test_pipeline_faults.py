"""Resilience tests for the I/O path: retries, skips, error propagation.

Covers the fault-tolerance contract of the read stack: injected read
errors are retried with backoff, corrupt records are skipped and
counted (never crash the trainer), and a fatal reader exception inside
the prefetch pipeline surfaces in the consuming thread at its place in
the stream without leaking daemon threads.
"""

import threading
import time

import numpy as np
import pytest

from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    InjectedReadError,
)
from repro.io.dataset import RecordDataset, write_dataset
from repro.io.pipeline import PrefetchPipeline
from repro.io.records import RecordCorruptError
from repro.utils.retry import RetryPolicy, call_with_retry


def make_files(tmp_path, n=24, size=4, samples_per_file=4):
    rng = np.random.default_rng(0)
    vols = rng.standard_normal((n, size, size, size)).astype(np.float32)
    tgts = rng.random((n, 3)).astype(np.float32)
    return write_dataset(tmp_path, vols, tgts, samples_per_file=samples_per_file)


class TestRetryPolicy:
    def test_backoff_schedule(self):
        p = RetryPolicy(max_attempts=4, base_delay_s=0.01, multiplier=2.0, max_delay_s=0.03)
        assert p.delay(0) == pytest.approx(0.01)
        assert p.delay(1) == pytest.approx(0.02)
        assert p.delay(2) == pytest.approx(0.03)  # capped

    def test_succeeds_after_transient_failures(self):
        sleeps = []
        calls = []

        def fn(attempt):
            calls.append(attempt)
            if attempt < 2:
                raise IOError("transient")
            return "ok"

        out = call_with_retry(
            fn, RetryPolicy(max_attempts=3, base_delay_s=0.5), sleep=sleeps.append
        )
        assert out == "ok"
        assert calls == [0, 1, 2]
        assert sleeps == [0.5, 1.0]  # exponential backoff

    def test_exhaustion_reraises_last(self):
        with pytest.raises(IOError, match="always"):
            call_with_retry(
                lambda a: (_ for _ in ()).throw(IOError("always")),
                RetryPolicy(max_attempts=2, base_delay_s=0.0),
            )

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def fn(attempt):
            calls.append(attempt)
            raise RecordCorruptError("rot", path="x")

        with pytest.raises(RecordCorruptError):
            call_with_retry(
                fn,
                RetryPolicy(max_attempts=5, base_delay_s=0.0),
                retryable=(IOError,),
                non_retryable=(RecordCorruptError,),
            )
        assert calls == [0]  # corruption is not retried

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestDatasetRetry:
    def test_injected_read_error_is_retried(self, tmp_path):
        paths = make_files(tmp_path)
        inj = FaultInjector(
            FaultPlan(events=[FaultEvent(FaultKind.READ_ERROR, step=2, repeats=2)])
        )
        ds = RecordDataset(
            paths,
            read_hook=inj.read_hook(),
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0),
        )
        batches = list(ds.batches(4, rng=0, shuffle=False))
        assert sum(len(b[0]) for b in batches) == 24  # nothing lost
        assert ds.read_retries == 2
        assert inj.fired[FaultKind.READ_ERROR] == 2

    def test_persistent_error_exhausts_retries(self, tmp_path):
        paths = make_files(tmp_path)
        inj = FaultInjector(
            FaultPlan(events=[FaultEvent(FaultKind.READ_ERROR, step=0, repeats=10)])
        )
        ds = RecordDataset(
            paths,
            read_hook=inj.read_hook(),
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0),
        )
        with pytest.raises(InjectedReadError):
            list(ds.batches(4, rng=0, shuffle=False))

    def test_no_retry_by_default(self, tmp_path):
        paths = make_files(tmp_path)
        inj = FaultInjector(
            FaultPlan(events=[FaultEvent(FaultKind.READ_ERROR, step=0)])
        )
        ds = RecordDataset(paths, read_hook=inj.read_hook())
        with pytest.raises(InjectedReadError):
            list(ds.batches(4, rng=0, shuffle=False))

    def test_corrupt_record_skipped_not_retried(self, tmp_path):
        paths = make_files(tmp_path)
        inj = FaultInjector(
            FaultPlan(events=[FaultEvent(FaultKind.RECORD_CORRUPT, step=1)])
        )
        inj.corrupt_record_file(paths[0])
        ds = RecordDataset(
            paths, retry=RetryPolicy(max_attempts=2, base_delay_s=0.0), strict=False
        )
        assert len(ds) == 23  # the corrupt record is not even counted
        total = sum(len(b[0]) for b in ds.batches(4, rng=0, shuffle=False))
        assert total == 23
        assert ds.read_retries == 0  # corruption is not transient

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
        ds = RecordDataset(paths, retry=RetryPolicy(max_attempts=5), strict=False)
        shard = ds.shard(1, 2)
        assert shard.retry == ds.retry
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
        inj = FaultInjector(
            FaultPlan(
                events=[
                    FaultEvent(FaultKind.READ_ERROR, step=0, repeats=100),
                    FaultEvent(FaultKind.READ_ERROR, step=1, repeats=100),
                ]
            )
        )
        ds = RecordDataset(paths, read_hook=inj.read_hook())
        pipe = PrefetchPipeline(ds, n_io_threads=2, buffer_size=4)
        it = pipe.batches(4, rng=0)
        # The consumer must see the failure on its first next() call.
        with pytest.raises(InjectedReadError):
            next(it)

    def test_error_does_not_leak_threads(self, tmp_path):
        paths = make_files(tmp_path)
        inj = FaultInjector(
            FaultPlan(events=[FaultEvent(FaultKind.READ_ERROR, step=3, repeats=100)])
        )
        ds = RecordDataset(paths, read_hook=inj.read_hook())
        before = threading.active_count()
        pipe = PrefetchPipeline(ds, n_io_threads=3, buffer_size=2)
        with pytest.raises(InjectedReadError):
            for _ in pipe.batches(4, rng=0):
                pass
        deadline = time.monotonic() + 5.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == before
        assert pipe.stats.producer_errors >= 1

    def test_error_surfaces_promptly_even_with_buffered_batches(self, tmp_path):
        paths = make_files(tmp_path)
        inj = FaultInjector(
            FaultPlan(events=[FaultEvent(FaultKind.READ_ERROR, step=4, repeats=100)])
        )
        ds = RecordDataset(paths, read_hook=inj.read_hook())
        pipe = PrefetchPipeline(ds, n_io_threads=1, buffer_size=2)
        it = pipe.batches(4, rng=0)
        consumed = 0
        with pytest.raises(InjectedReadError):
            for _ in it:
                consumed += 1
        # 6 files, one batch each: the error is the 5th read's, and it
        # surfaces at the 5th batch — where the direct read raises it.
        assert consumed == 4

    def test_pipeline_counts_retries_and_skips(self, tmp_path):
        paths = make_files(tmp_path)
        inj = FaultInjector(
            FaultPlan(
                events=[
                    FaultEvent(FaultKind.READ_ERROR, step=2),
                    FaultEvent(FaultKind.RECORD_CORRUPT, step=2),
                ]
            )
        )
        inj.corrupt_record_file(paths[3])
        ds = RecordDataset(
            paths,
            read_hook=inj.read_hook(),
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            strict=False,
        )
        pipe = PrefetchPipeline(ds, n_io_threads=2, buffer_size=4)
        total = sum(len(b[0]) for b in pipe.batches(4, rng=0))
        assert total == 23  # one corrupt record dropped, nothing crashed
        # Each file is read once per epoch, whatever the thread count:
        # one injected error is one retry, one corrupt record one skip.
        assert pipe.stats.read_retries == 1
        assert pipe.stats.records_skipped == 1
        assert pipe.stats.producer_errors == 0

    def test_fault_free_pipeline_unchanged(self, tmp_path):
        paths = make_files(tmp_path)
        ds = RecordDataset(paths)
        pipe = PrefetchPipeline(ds, n_io_threads=2, buffer_size=4)
        total = sum(len(b[0]) for b in pipe.batches(4, rng=0))
        assert total == 24
        assert pipe.stats.read_retries == 0
        assert pipe.stats.records_skipped == 0
        assert pipe.stats.producer_errors == 0

    def test_read_delay_fault_just_slows(self, tmp_path):
        paths = make_files(tmp_path)
        inj = FaultInjector(
            FaultPlan(events=[FaultEvent(FaultKind.READ_DELAY, step=1, delay_s=0.05)])
        )
        ds = RecordDataset(paths, read_hook=inj.read_hook())
        total = sum(len(b[0]) for b in ds.batches(4, rng=0, shuffle=False))
        assert total == 24
        assert inj.fired[FaultKind.READ_DELAY] == 1
