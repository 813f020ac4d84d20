"""Ordered read-ahead of record files (TensorFlow QueueRunner substitute).

"The CosmoFlow code uses the QueueRunner and coordinator features of
TensorFlow to read and buffer training samples in a pipeline behind
gradient computation.  Ideally this should hide the cost of I/O as long
as there is sufficient read bandwidth" (Section VI-A).

:class:`PrefetchPipeline` is :meth:`RecordDataset.stream
<repro.io.dataset.RecordDataset.stream>` — the one piece of code that
draws an epoch and assembles its batches — with the files loaded ahead
of time: N I/O threads each take the next file of the epoch's plan,
read, checksum and decode it once, and the consumer is handed the loads
in plan order.  So ``PrefetchPipeline(ds, n).batches(b, rng, shuffle)``
equals ``ds.batches(b, rng, shuffle)`` batch for batch, for every
``n``; what ``n`` changes is how many reads overlap.  When the loads
keep ahead, the consumer never waits — I/O is hidden.  When storage is
slower than compute (the dataset's ``read_hook`` models that), the
consumer blocks and the stall time is recorded — exactly the mechanism
behind the paper's Lustre scaling cliff.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Tuple

import numpy as np

from repro.io.dataset import RecordDataset

__all__ = ["PipelineStats", "PrefetchPipeline"]


@dataclass
class PipelineStats:
    """What only the pipeline observes, over every epoch it has read.

    Skipped records are the dataset's count
    (:attr:`RecordDataset.records_skipped
    <repro.io.dataset.RecordDataset.records_skipped>`) and hedged,
    fallback and retried reads the staging tier's
    (:class:`~repro.io.staging.StagingStats`); they are not copied here.
    """

    samples_delivered: int = 0
    consumer_wait_s: float = 0.0
    #: Most files found loaded ahead of the consumer when it came for one.
    max_queue_depth: int = 0
    #: Seconds the consumer was blocked on a load, per batch delivered.
    waits: List[float] = field(default_factory=list)
    #: Loads that raised on an I/O thread (each re-raised to the consumer).
    producer_errors: int = 0


class PrefetchPipeline:
    """A :class:`RecordDataset` whose epoch is read ahead on threads.

    Parameters
    ----------
    dataset
        The :class:`RecordDataset` to read.
    n_io_threads
        Paper: 6 I/O threads per rank (Figure 3's configuration); the
        default matches.
    buffer_size
        Look-ahead bound, in files: how many may be loaded or loading
        and not yet handed to the consumer.
    """

    def __init__(self, dataset: RecordDataset, n_io_threads: int = 6, buffer_size: int = 16):
        if n_io_threads < 1:
            raise ValueError("n_io_threads must be >= 1")
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        self.dataset = dataset
        self.n_io_threads = n_io_threads
        self.buffer_size = buffer_size
        self.stats = PipelineStats()

    def __len__(self) -> int:
        return len(self.dataset)

    def batches(
        self, batch_size: int = 1, rng=None, shuffle: bool = True
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """``dataset.batches(batch_size, rng, shuffle)``, read ahead."""
        stats = self.stats
        waited = stats.consumer_wait_s
        for batch in self.dataset.stream(batch_size, rng, shuffle, self._read_ahead):
            stats.waits.append(stats.consumer_wait_s - waited)
            waited = stats.consumer_wait_s
            stats.samples_delivered += len(batch[0])
            yield batch

    def _read_ahead(self, paths: List[Path]) -> Iterator[list]:
        """Each file's samples, in ``paths`` order, loaded on the I/O
        threads up to ``buffer_size`` files ahead of the consumer.

        A thread takes the next file *and resolves it* in one step under
        ``turn``, so staging decisions are made in stream order — the
        direct read's decisions — while the reads themselves overlap.
        A load that raises is re-raised here when the consumer reaches
        its place in the stream; once one has failed no load is started.
        """
        dataset, stats = self.dataset, self.stats
        loads = [Future() for _ in paths]
        todo = iter(range(len(paths)))
        turn = threading.Lock()
        # Permits to start a load; the consumer returns one per file it
        # takes, and enough to wake every thread when it is done.
        window = threading.Semaphore(self.buffer_size)
        # Set when the epoch ends early (the consumer broke out, or a
        # load failed): the paper's "coordinator" role.
        stop = threading.Event()

        def io_thread() -> None:
            while True:
                window.acquire()
                try:
                    with turn:
                        k = next(todo, None)
                        if k is None or stop.is_set():
                            return
                        resolved = dataset._resolve(paths[k])
                    loads[k].set_result(dataset._load_file(paths[k], resolved))
                except BaseException as exc:  # noqa: BLE001 - re-raised by the consumer
                    with turn:
                        stats.producer_errors += 1
                    stop.set()
                    loads[k].set_exception(exc)

        threads = [
            threading.Thread(target=io_thread, name=f"io-{t}", daemon=True)
            for t in range(self.n_io_threads)
        ]
        for t in threads:
            t.start()
        try:
            for k in range(len(paths)):
                ahead = sum(load.done() for load in loads[k : k + self.buffer_size])
                stats.max_queue_depth = max(stats.max_queue_depth, ahead)
                t0 = time.perf_counter()
                samples = loads[k].result()
                stats.consumer_wait_s += time.perf_counter() - t0
                # A file stays mapped as long as its samples are in use,
                # not as long as the epoch.
                loads[k] = None
                window.release()
                yield samples
        finally:
            stop.set()
            for _ in threads:
                window.release()
            for t in threads:
                t.join(timeout=5.0)
