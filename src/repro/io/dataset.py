"""File-backed record dataset.

The paper's layout: "We randomly assign the training sub-volumes to
TFRecord files ... Each TFRecord contains 64 samples and is 512 MB in
size."  :func:`write_dataset` shards arrays into fixed-size record
files the same way; :class:`RecordDataset` reads them back, implements
the trainer's ``len()/batches()`` protocol, and supports the per-rank
sharding data-parallel training needs.

There is one epoch stream, :meth:`RecordDataset.stream` (plan the file
order, load each file once, assemble batches in plan order):
:meth:`RecordDataset.batches` is that stream loading each file as it is
needed, :class:`~repro.io.pipeline.PrefetchPipeline` the same stream
with the loads made ahead of time.
"""

from __future__ import annotations

import inspect
import threading
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.io.records import RecordCorruptionError, RecordReader, write_record_file
from repro.utils.logging import get_logger
from repro.utils.retry import RetryPolicy, call_with_retry
from repro.utils.rng import new_rng

__all__ = ["write_dataset", "RecordDataset"]

_log = get_logger("io.dataset")

#: The paper's samples-per-record-file.
SAMPLES_PER_FILE = 64


def write_dataset(
    directory,
    volumes: np.ndarray,
    targets: np.ndarray,
    samples_per_file: int = SAMPLES_PER_FILE,
    prefix: str = "cosmo",
    shuffle_rng=None,
) -> List[Path]:
    """Shard arrays into record files; returns the file paths.

    With ``shuffle_rng`` the samples are randomly assigned to files, as
    the paper does for training data (and does *not* for validation and
    test data).
    """
    if len(volumes) != len(targets):
        raise ValueError(f"{len(volumes)} volumes vs {len(targets)} targets")
    if len(volumes) == 0:
        raise ValueError("cannot write an empty dataset")
    if samples_per_file < 1:
        raise ValueError("samples_per_file must be >= 1")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    order = np.arange(len(volumes))
    if shuffle_rng is not None:
        new_rng(shuffle_rng).shuffle(order)
    paths = []
    n_files = -(-len(volumes) // samples_per_file)
    for i in range(n_files):
        idx = order[i * samples_per_file : (i + 1) * samples_per_file]
        path = directory / f"{prefix}_{i:05d}.rec"
        write_record_file(path, [volumes[j] for j in idx], [targets[j] for j in idx])
        paths.append(path)
    return paths


class RecordDataset:
    """A dataset backed by record files.

    Indexes the files at construction (one pass to count records), then
    serves shuffled minibatches by loading files lazily.  Shuffling is
    two-level — file order, then samples within a read buffer — the
    standard approximation to full shuffling for record-sharded data
    (and what the paper's QueueRunner pipeline effectively does).
    """

    def __init__(
        self,
        paths: Sequence,
        read_hook=None,
        retry: Optional[RetryPolicy] = None,
        strict: bool = True,
        staging=None,
        *,
        _counts: Optional[Sequence[int]] = None,
    ):
        self.paths = [Path(p) for p in paths]
        if not self.paths:
            raise ValueError("RecordDataset needs at least one file")
        missing = [p for p in self.paths if not p.exists()]
        if missing:
            raise FileNotFoundError(f"missing record files: {missing}")
        #: Optional callable(path, nbytes) invoked per file read — the
        #: hook a slow store injects read latency through (E3) and the
        #: fault injector injects read errors through.  Hooks may
        #: optionally take an ``attempt`` keyword to see retries.
        self.read_hook = read_hook
        self._hook_takes_attempt = read_hook is not None and (
            "attempt" in inspect.signature(read_hook).parameters
        )
        #: Optional bounded-retry policy for transient read errors.
        #: ``None`` keeps the historical fail-fast behaviour.
        self.retry = retry
        #: With ``strict=False``, corrupt records are skipped and
        #: counted instead of raising (see :class:`RecordReader`).
        self.strict = strict
        #: Optional :class:`~repro.io.staging.StagingManager`: reads
        #: resolve through the burst-buffer tier (staged copy, hedged
        #: read, or degraded backing-store fallback), and a staged copy
        #: that decodes corrupt is quarantined and re-staged before the
        #: source itself is blamed.
        self.staging = staging
        # ``_counts``: a shard is handed its parent's index instead of
        # reading and checksumming every record a second time.
        self._counts = (
            [sum(1 for _ in RecordReader(p, strict=strict)) for p in self.paths]
            if _counts is None
            else list(_counts)
        )
        self._lock = threading.Lock()
        self.bytes_read = 0
        #: Fault counters, reported through the pipeline's stats.
        self.read_retries = 0
        self.records_skipped = 0

    def __len__(self) -> int:
        return sum(self._counts)

    @property
    def n_files(self) -> int:
        return len(self.paths)

    def _call_hook(self, path: Path, nbytes: int, attempt: int) -> None:
        if self._hook_takes_attempt:
            self.read_hook(path, nbytes, attempt=attempt)
        else:
            self.read_hook(path, nbytes)

    def _read_records(self, physical: Path):
        reader = RecordReader(physical, strict=self.strict)
        return list(reader.views()), reader

    def _resolve(self, path: Path) -> Tuple[Path, str]:
        """Where one read of ``path`` goes, and its tier.  Through a
        staging tier this is a decision (a miss stages, a full buffer
        evicts): a reader-ahead makes these calls in stream order."""
        if self.staging is None:
            return path, "direct"
        resolved = self.staging.read(path)
        return resolved.path, resolved.tier

    def _load_file(
        self, path: Path, resolved: Optional[Tuple[Path, str]] = None
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """One file's samples as read-only views of its mapping: the
        caller copies each volume once, into the array it hands out.
        ``resolved`` is the :meth:`_resolve` the caller has already made
        for this read; a retry resolves again."""

        def read_from(physical: Path, tier: str, attempt: int):
            try:
                nbytes = physical.stat().st_size
                if self.read_hook is not None:
                    self._call_hook(path, nbytes, attempt)
                samples, reader = self._read_records(physical)
                corrupt = reader.records_skipped > 0
            except FileNotFoundError:
                if tier != "bb":
                    raise
                # Another reader's stage-in evicted this copy after it
                # was resolved and before it was opened: a burst-buffer
                # eviction, so a degraded read of the source, counted.
                return read_from(self.staging.handle_evicted(path).path, "backing", attempt)
            except RecordCorruptionError:
                if tier != "bb":
                    raise
                corrupt = True
            if corrupt and tier == "bb":
                # Corruption in the *staged copy* is the staging tier's
                # to fix: quarantine it, re-stage, re-read once.  If the
                # source is corrupt too, the re-read raises for real.
                restaged = self.staging.handle_corrupt(path)
                samples, reader = self._read_records(restaged.path)
            with self._lock:
                self.bytes_read += nbytes
                self.records_skipped += reader.records_skipped
            if reader.records_skipped:
                _log.warning(
                    "skipped %d corrupt record(s) in %s", reader.records_skipped, path
                )
            return samples

        def attempt_read(attempt: int) -> List[Tuple[np.ndarray, np.ndarray]]:
            first = resolved is not None and attempt == 0
            return read_from(*(resolved if first else self._resolve(path)), attempt)

        if self.retry is None:
            return attempt_read(0)

        def on_retry(attempt: int, exc: BaseException) -> None:
            with self._lock:
                self.read_retries += 1
            _log.warning(
                "read of %s failed (attempt %d): %s — retrying", path, attempt + 1, exc
            )

        # Corruption subclasses IOError but is not transient: no retry.
        return call_with_retry(
            attempt_read,
            self.retry,
            retryable=(OSError,),
            non_retryable=(RecordCorruptionError,),
            on_retry=on_retry,
        )

    def batches(
        self, batch_size: int = 1, rng=None, shuffle: bool = True
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(x, y)`` batches with ``x`` shaped ``(B, C, D, H, W)``."""
        return self.stream(batch_size, rng, shuffle, lambda paths: map(self._load_file, paths))

    def stream(
        self, batch_size: int, rng, shuffle: bool, loads: Callable[[List[Path]], Iterable]
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The epoch: plan, load, assemble.

        The file order is drawn from ``rng`` up front; ``loads`` is
        handed the files in that order and yields each one's samples in
        that order (:meth:`batches` loads them as it goes, a
        :class:`~repro.io.pipeline.PrefetchPipeline` ahead of time);
        each file's sample order is drawn as the file arrives.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        rng = new_rng(rng)
        file_order = np.arange(len(self.paths))
        if shuffle:
            rng.shuffle(file_order)
        bx = by = None
        filled = 0
        for samples in loads([self.paths[fi] for fi in file_order]):
            order = np.arange(len(samples))
            if shuffle:
                rng.shuffle(order)
            for si in order:
                v, t = samples[si]
                if v.ndim == 3:
                    v = v[None]
                if bx is None:
                    bx = np.empty((batch_size, *v.shape), dtype=v.dtype)
                    by = np.empty((batch_size, *t.shape), dtype=t.dtype)
                elif v.shape != bx.shape[1:] or t.shape != by.shape[1:]:
                    raise ValueError(
                        f"sample of shape {v.shape}/{t.shape} in a batch of "
                        f"{bx.shape[1:]}/{by.shape[1:]}"
                    )
                bx[filled] = v
                by[filled] = t
                filled += 1
                if filled == batch_size:
                    yield bx, by
                    bx = by = None
                    filled = 0
        if filled:
            yield bx[:filled], by[:filled]

    def shard(self, rank: int, n_ranks: int) -> "RecordDataset":
        """Round-robin *file* shard for data-parallel rank ``rank``.

        File-level sharding is what record-based pipelines do (each
        rank reads disjoint files); requires at least one file per rank.
        """
        if not 0 <= rank < n_ranks:
            raise ValueError(f"rank {rank} out of range for {n_ranks}")
        picked = self.paths[rank::n_ranks]
        if not picked:
            raise ValueError(
                f"dataset has {len(self.paths)} files, too few for {n_ranks} ranks"
            )
        return RecordDataset(
            picked,
            read_hook=self.read_hook,
            retry=self.retry,
            strict=self.strict,
            staging=self.staging,
            _counts=self._counts[rank::n_ranks],
        )

    def to_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Materialize the whole dataset (small datasets / tests)."""
        xs, ys = [], []
        for path in self.paths:
            for v, t in self._load_file(path):
                xs.append(v[None] if v.ndim == 3 else v)
                ys.append(t)
        return np.stack(xs), np.stack(ys)
