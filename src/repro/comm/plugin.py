"""CPE-ML-Plugin-style gradient aggregation.

The Cray PE ML Plugin (paper, Section III-D) exposes a tiny API to the
training script — initialize, broadcast the initial model, and
``mc.gradients(g)`` to average gradients — while internally running
chunked, multi-threaded, non-blocking MPI reductions.  "There are no
unique processes (e.g. parameter servers, backup workers) ... Every MPI
rank is a worker computing gradients."

:class:`MLPlugin` reproduces that API over any
:class:`~repro.comm.communicator.Communicator`:

* gradients for all layers are flattened into one message (the paper's
  28.15 MB model update) and split into ``teams * threads_per_team``
  chunks, mirroring how each helper thread "progresses a portion of
  gradient aggregation independently";
* chunks are reduced with ``ReduceOp.MEAN`` so every rank applies the
  same globally averaged update (Algorithm 2's ``mc.gradients()``);
* per-call statistics (bytes, chunk count, wall time) are recorded for
  the communication analysis experiment (E4).

In-process, chunking cannot overlap with a real NIC, so the helper
threads' *performance* effect (higher network utilization) is carried
by the ``helper_thread_speedup`` term of
:func:`repro.comm.algorithms.allreduce_time_model` in the performance
model; the *semantics* (chunked deterministic averaging) are exact
here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.comm.communicator import Communicator, ReduceOp
from repro.comm.compression import COMPRESSION_MODES, make_compressor
from repro.utils.packing import flatten_arrays, unflatten_arrays

__all__ = ["PluginConfig", "MLPlugin"]


@dataclass(frozen=True)
class PluginConfig:
    """Tuning knobs of the plugin (paper: "the number of teams and
    threads per team is tuned by the user when initializing").

    The paper uses 4 helper threads in one team on Cori and 2 on
    Piz Daint.  ``compression`` selects the pre-reduction gradient
    transform (:mod:`repro.comm.compression`): ``"none"`` leaves the
    fp32 path untouched; ``"fp16"`` casts through half precision;
    ``"topk"`` keeps the ``topk_fraction`` largest-magnitude elements
    with error-feedback residual accumulation.
    """

    teams: int = 1
    threads_per_team: int = 4
    compression: str = "none"
    topk_fraction: float = 0.1

    def __post_init__(self):
        if self.teams < 1 or self.threads_per_team < 1:
            raise ValueError("teams and threads_per_team must be >= 1")
        if self.compression not in COMPRESSION_MODES:
            raise ValueError(
                f"unknown compression {self.compression!r}; "
                f"expected one of {COMPRESSION_MODES}"
            )
        if not 0.0 < self.topk_fraction <= 1.0:
            raise ValueError("topk_fraction must be in (0, 1]")

    @property
    def n_chunks(self) -> int:
        return self.teams * self.threads_per_team

    def build_compressor(self):
        """One rank's compressor instance (``None`` for mode "none")."""
        return make_compressor(self.compression, self.topk_fraction)


@dataclass
class PluginStats:
    """Cumulative communication statistics."""

    calls: int = 0
    bytes_reduced: int = 0
    chunks_reduced: int = 0
    seconds: float = 0.0


class MLPlugin:
    """Gradient-aggregation plugin bound to one communicator rank."""

    def __init__(self, comm: Communicator, config: PluginConfig | None = None):
        self.comm = comm
        self.config = config or PluginConfig()
        self.stats = PluginStats()
        #: This rank's gradient compressor (``None`` when the config
        #: selects no compression — the fp32 path stays untouched).
        #: Per-rank by construction: the top-k error-feedback residual
        #: is rank-local state.
        self.compressor = self.config.build_compressor()
        self._initialized = False

    # -- lifecycle (mirrors the C/Python plugin API) ------------------------

    def init(self) -> "MLPlugin":
        """Initialize the plugin (idempotent)."""
        self._initialized = True
        return self

    def finalize(self) -> None:
        self._initialized = False

    def broadcast_parameters(self, params: Sequence[np.ndarray], root: int = 0) -> None:
        """Broadcast rank-``root``'s parameters to all ranks, in place.

        "Once the neural network is constructed ... the initial model
        parameters are broadcast from rank 0 to all other ranks.  This
        ensures all ranks start with the identical model."
        """
        self._require_init()
        for p in params:
            p[...] = self.comm.bcast(p if self.comm.rank == root else None, root=root)

    # -- gradient aggregation ------------------------------------------------

    def gradients(self, grads: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Globally average per-layer gradients (Algorithm 2's
        ``mc.gradients``); returns new arrays in the input layout."""
        self._require_init()
        t0 = time.perf_counter()
        shapes = [np.shape(g) for g in grads]
        flat = flatten_arrays(grads)
        if self.compressor is not None:
            # Pre-reduction transform on the local flat message; the
            # chunked MEAN below is unchanged, so determinism and
            # cross-backend bitwise equality are preserved.
            flat = self.compressor.compress(flat)

        reduced = np.empty_like(flat)
        bounds = np.linspace(0, flat.size, self.config.n_chunks + 1).astype(int)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi > lo:
                reduced[lo:hi] = self.comm.allreduce(flat[lo:hi], op=ReduceOp.MEAN)
                self.stats.chunks_reduced += 1

        self.stats.calls += 1
        self.stats.bytes_reduced += int(flat.nbytes)
        self.stats.seconds += time.perf_counter() - t0

        return unflatten_arrays(reduced, shapes)

    def average_scalar(self, value: float) -> float:
        """Average a scalar metric across ranks (the validation loop's
        "loss calculation and global averaging")."""
        self._require_init()
        return float(
            self.comm.allreduce(np.asarray([value], dtype=np.float64), op=ReduceOp.MEAN)[0]
        )

    def _require_init(self) -> None:
        if not self._initialized:
            raise RuntimeError("MLPlugin used before init() (or after finalize())")
