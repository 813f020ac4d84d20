"""Communication layer (Cray CPE ML Plugin / MPI substitute).

The paper parallelizes training with the Cray PE Machine Learning
Plugin: an MPI-based library whose one job is averaging gradients
across ranks every step, using non-blocking, multi-threaded collective
algorithms with no parameter servers ("every MPI rank is a worker
computing gradients").

This subpackage reproduces that stack in-process:

* :mod:`repro.comm.communicator` — the abstract :class:`Communicator`
  API (rank, size, allreduce, bcast, barrier) every backend implements.
* :mod:`repro.comm.serial` — a size-1 communicator and a
  ``SteppedGroup`` of sequential rank communicators for deterministic
  simulated multi-rank execution (ranks run one after another; the
  collectives are numerically identical to a parallel run).
* :mod:`repro.comm.membership` — the membership words of a rank group
  and every decision on them (quorum, fencing, completion, spares,
  admission), written once for both rank groups below.
* :mod:`repro.comm.elastic` — :class:`ThreadedGroup`, real OS threads,
  one per rank (NumPy releases the GIL inside BLAS so compute genuinely
  overlaps), under a quorum: at ``quorum == size`` any lost rank fails
  the run like an MPI job, below it the collectives shrink and continue
  over the surviving ranks and grow back.
* :mod:`repro.comm.algorithms` — allreduce algorithms on explicit
  message schedules: ring, recursive halving-doubling, and the
  centralized reduce-broadcast that gRPC's master-slave aggregation
  uses; plus their cost models (used by :mod:`repro.perfmodel`).
* :mod:`repro.comm.plugin` — :class:`MLPlugin`, the CPE-ML-Plugin-like
  gradient-aggregation object (init/broadcast/gradients API, helper-
  thread teams, chunked pipelining).
* :mod:`repro.comm.errors` — the typed :class:`CommError` hierarchy
  (rank failure/eviction, message corruption, quorum loss).
* :mod:`repro.comm.stale` — :class:`StaleGroup`, the bounded-staleness
  partial collective (SSGD/SAGN): each step folds the fastest quorum's
  gradients, stragglers fold in late within a hard staleness bound,
  and a :class:`StragglerMonitor` quarantines and rehabilitates
  persistent slow ranks — all on deterministic virtual time.
* :mod:`repro.comm.process` — :class:`ProcessComm` +
  :class:`RankSupervisor`, the same protocol for ranks as spawned OS
  processes over crash-safe shared-memory collectives, with
  parent-side crash detection, heartbeat eviction, and guaranteed
  segment cleanup.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy(__name__, {
    "communicator": ("Communicator", "ReduceOp"),
    "serial": ("SerialCommunicator", "SteppedGroup"),
    "elastic": ("ThreadedGroup", "ElasticComm"),
    "process": ("ProcessComm", "RankSupervisor", "sweep_stale_segments"),
    "errors": ("CommError", "RankFailedError", "ProcessCrashError", "RankEvictedError",
               "MessageCorruptError", "QuorumLostError"),
    "algorithms": ("ring_allreduce_schedule", "halving_doubling_schedule",
                   "reduce_broadcast_schedule", "allreduce_time_model",
                   "ALLREDUCE_ALGORITHMS"),
    "plugin": ("MLPlugin", "PluginConfig"),
    "stale": ("STALE_MODES", "StaleGroup", "StalenessConfig", "StragglerMonitor"),
    "compression": ("COMPRESSION_MODES", "CompressionStats", "GradientCompressor",
                    "Fp16Compressor", "TopKCompressor", "make_compressor", "compression_ratio"),
})
