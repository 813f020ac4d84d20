"""I/O subsystem: record files, prefetch pipeline, filesystem models.

The paper's data path: 1.4 TB of TFRecord files (64 samples / 512 MB
per file) striped over Lustre or the DataWarp burst buffer, read by
"dedicated I/O threads in each rank [that] buffer randomly selected
samples into memory from disk" via TensorFlow's QueueRunner — and the
paper's central systems finding is that this path, not compute or
communication, limits scaling beyond ~512 nodes on Lustre.

* :mod:`repro.io.records` — a TFRecord-compatible framing format
  (length + masked-CRC32 framing per record) with a binary sample
  encoding for (volume, target) pairs.
* :mod:`repro.io.dataset` — :class:`RecordDataset`, the file-backed
  dataset implementing the trainer's ``len()/batches()`` protocol with
  shuffling and rank sharding; its ``stream`` is the one epoch stream
  (plan the file order, load each file once, assemble batches).
* :mod:`repro.io.pipeline` — :class:`PrefetchPipeline`, that stream with
  its file loads read ahead on background I/O threads, a bounded number
  of files ahead of the training loop (the QueueRunner substitute): the
  direct read's batches, batch for batch, at every thread count.
* :mod:`repro.io.filesystem` — parameterized models of Cori Lustre,
  Cori DataWarp and Piz Daint Lustre (OST counts, striping, bandwidth,
  contention, per-target variability) used by the scaling experiments
  and by Equation 1's bandwidth analysis.
* :mod:`repro.io.staging` — :class:`StagingManager`, the resilient
  burst-buffer staging tier (DataWarp → Lustre hierarchy): stage-in
  verified byte for byte and renamed into place, with jittered retries,
  hedged reads, per-target circuit breakers, quarantine + re-stage of
  corrupt copies, and degraded-mode fallback to direct backing-store
  reads.
"""

from repro.io.records import (
    encode_sample,
    decode_sample,
    RecordWriter,
    RecordReader,
    write_record_file,
    read_record_file,
    RecordCorruptionError,
    RecordCorruptError,
)
from repro.io.dataset import RecordDataset, write_dataset
from repro.io.pipeline import PrefetchPipeline, PipelineStats
from repro.io.staging import (
    BreakerState,
    CircuitBreaker,
    StageError,
    StagedRead,
    StagingConfig,
    StagingManager,
    StagingStats,
)
from repro.io.filesystem import (
    FilesystemSpec,
    cori_lustre,
    cori_datawarp,
    pizdaint_lustre,
    make_read_hook,
    required_bandwidth_per_node,
    PAPER_SAMPLE_MB,
)

__all__ = [
    "encode_sample",
    "decode_sample",
    "RecordWriter",
    "RecordReader",
    "write_record_file",
    "read_record_file",
    "RecordCorruptionError",
    "RecordCorruptError",
    "RecordDataset",
    "write_dataset",
    "PrefetchPipeline",
    "PipelineStats",
    "BreakerState",
    "CircuitBreaker",
    "StageError",
    "StagedRead",
    "StagingConfig",
    "StagingManager",
    "StagingStats",
    "FilesystemSpec",
    "cori_lustre",
    "cori_datawarp",
    "pizdaint_lustre",
    "make_read_hook",
    "required_bandwidth_per_node",
    "PAPER_SAMPLE_MB",
]
