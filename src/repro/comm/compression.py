"""Gradient compression for the allreduce path: fp16-cast and top-k.

The E4 communication term is linear in message bytes (the paper's
28.15 MB model update).  Two standard lossy compressors cut it:

* ``fp16`` — cast the flat gradient through half precision before the
  reduction.  2 wire bytes per element instead of 4; the values the
  MEAN allreduce combines are exactly representable fp16 numbers, so
  the reduction itself stays deterministic fp32 arithmetic.
* ``topk`` — send only the ``k``-fraction largest-magnitude elements
  (ties broken by index, so selection is deterministic), accumulating
  everything unsent into a per-rank **error-feedback residual** that is
  added back before the next selection (Stich et al., "Sparsified SGD
  with Memory").  Wire cost is ``k * (4 value bytes + 4 index bytes)``
  per element sent — a 5x byte reduction at k=10%.

Compression is a *pre-reduction transform on the local flat gradient*:
the group reduction downstream is the unchanged rank-ordered element-wise
MEAN, which is why serial (stepped), threaded, and process backends
stay bitwise identical to each other under compression — each virtual
or real rank owns one compressor (and its residual), applies the same
transform to the same values, and the reduction sees the same inputs
in the same order.  Mode ``"none"`` constructs no compressor at all:
the fp32 path is untouched, not merely approximated.

Error-feedback residuals are per-rank state that is deliberately *not*
donated on elastic rejoin: a joiner restarts with a zero residual
(deterministically — repeated runs of the same faulted schedule replay
bitwise), mirroring how a replacement node joins with empty momentum in
real deployments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "COMPRESSION_MODES",
    "CompressionStats",
    "GradientCompressor",
    "Fp16Compressor",
    "TopKCompressor",
    "make_compressor",
    "compression_ratio",
]

#: Selectable compression modes (``PluginConfig.compression``).
COMPRESSION_MODES = ("none", "fp16", "topk")


@dataclass
class CompressionStats:
    """Cumulative per-compressor accounting.

    ``bytes_in`` counts the dense fp32 payload handed to ``compress``;
    ``bytes_wire`` what the compressed representation would move over a
    real interconnect.  The in-process reduction still moves dense fp32
    arrays, so the *measured* savings live here, not in the group's
    ``bytes_reduced``.
    """

    calls: int = 0
    bytes_in: int = 0
    bytes_wire: int = 0

    @property
    def ratio(self) -> float:
        """Wire bytes / dense bytes (1.0 when nothing was compressed)."""
        return self.bytes_wire / self.bytes_in if self.bytes_in else 1.0

    @property
    def bytes_saved(self) -> int:
        return self.bytes_in - self.bytes_wire


class GradientCompressor:
    """Base: a deterministic transform on one rank's flat gradient."""

    name = "none"

    def __init__(self):
        self.stats = CompressionStats()

    def compress(self, flat: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def reset(self) -> None:
        """Drop per-rank state (residuals); stats are kept."""


class Fp16Compressor(GradientCompressor):
    """Cast the flat gradient through fp16 (2 wire bytes / element)."""

    name = "fp16"

    def compress(self, flat: np.ndarray) -> np.ndarray:
        flat = np.asarray(flat, dtype=np.float32)
        self.stats.calls += 1
        self.stats.bytes_in += int(flat.nbytes)
        self.stats.bytes_wire += 2 * int(flat.size)
        # Values beyond fp16 range become inf silently — in mixed
        # precision that *is* the loss scaler's overflow signal.
        with np.errstate(over="ignore"):
            return flat.astype(np.float16).astype(np.float32)


class TopKCompressor(GradientCompressor):
    """Magnitude top-k sparsification with error feedback.

    Selection is deterministic: elements are ranked by descending
    magnitude with index order breaking ties (stable mergesort), so
    every backend picks the identical support for identical inputs.
    The dense return keeps unselected slots at exactly 0.0, which the
    downstream MEAN allreduce averages like any other value.
    """

    name = "topk"

    def __init__(self, fraction: float = 0.1):
        super().__init__()
        if not 0.0 < fraction <= 1.0:
            raise ValueError("topk fraction must be in (0, 1]")
        self.fraction = float(fraction)
        self.residual: Optional[np.ndarray] = None

    def k_for(self, size: int) -> int:
        return max(1, int(round(self.fraction * size)))

    def compress(self, flat: np.ndarray) -> np.ndarray:
        flat = np.asarray(flat, dtype=np.float32)
        if not np.all(np.isfinite(flat)):
            # A mixed-precision overflow step: the inf/nan gradient is
            # the loss scaler's skip signal and the step's update will
            # be discarded.  Pass it through uncompressed — sparsifying
            # it is pointless, and folding inf into the residual would
            # poison every later step with inf - inf = nan.
            self.stats.calls += 1
            self.stats.bytes_in += int(flat.nbytes)
            self.stats.bytes_wire += int(flat.nbytes)
            return flat
        if self.residual is None or self.residual.size != flat.size:
            self.residual = np.zeros(flat.size, dtype=np.float32)
        work = flat + self.residual
        k = self.k_for(work.size)
        # Stable sort on negated magnitude: equal magnitudes keep index
        # order, making the selected support deterministic.
        order = np.argsort(-np.abs(work), kind="stable")[:k]
        dense = np.zeros_like(work)
        dense[order] = work[order]
        self.residual = work - dense
        self.stats.calls += 1
        self.stats.bytes_in += int(flat.nbytes)
        self.stats.bytes_wire += k * 8  # 4 value bytes + 4 index bytes
        return dense

    def reset(self) -> None:
        self.residual = None


def make_compressor(mode: str, topk_fraction: float = 0.1) -> Optional[GradientCompressor]:
    """Build one rank's compressor; ``None`` for mode ``"none"``
    (the fp32 path stays literally untouched)."""
    if mode == "none":
        return None
    if mode == "fp16":
        return Fp16Compressor()
    if mode == "topk":
        return TopKCompressor(topk_fraction)
    raise ValueError(
        f"unknown compression mode {mode!r}; expected one of {COMPRESSION_MODES}"
    )


def compression_ratio(mode: str, topk_fraction: float = 0.1) -> float:
    """Analytical wire-bytes ratio vs dense fp32 (the E4/E5 model term).

    ``fp16`` halves every element; ``topk`` sends ``k`` fraction of
    elements at 8 bytes each (fp32 value + int32 index) against 4
    dense bytes — ``2k``, i.e. 5x fewer bytes at k=10%.
    """
    if mode == "none":
        return 1.0
    if mode == "fp16":
        return 0.5
    if mode == "topk":
        if not 0.0 < topk_fraction <= 1.0:
            raise ValueError("topk fraction must be in (0, 1]")
        return min(1.0, 2.0 * topk_fraction)
    raise ValueError(
        f"unknown compression mode {mode!r}; expected one of {COMPRESSION_MODES}"
    )
