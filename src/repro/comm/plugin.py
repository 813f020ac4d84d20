"""One rank's gradient message: the CPE-ML-Plugin step, written once.

The Cray PE ML Plugin (paper, Section III-D) averages gradients with one
call per step, Algorithm 2's ``mc.gradients(g)``; "there are no unique
processes (e.g. parameter servers, backup workers) ... Every MPI rank is
a worker computing gradients."  Here every rank — a thread, a process,
or one of a stepped or stale context's simulated ranks — builds its
step's message with :func:`gradient_message`: the per-layer gradients
flattened into one buffer (the paper's 28.15 MB model update) and passed
through the rank's compressor, if it has one.  Its group reduces the
messages with ``ReduceOp.MEAN`` in rank order, so every rank applies the
same globally averaged update.

The plugin's helper-thread teams, which split the message into chunks
that progress independently on a real NIC, cannot overlap anything
in-process; their effect on the achieved bandwidth is the
``helper_thread_scale`` term of
:class:`~repro.perfmodel.interconnect.InterconnectSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.comm.compression import COMPRESSION_MODES, GradientCompressor, make_compressor
from repro.utils.packing import flatten_arrays

__all__ = ["PluginConfig", "gradient_message"]


@dataclass(frozen=True)
class PluginConfig:
    """The gradient message's wire format.

    ``compression`` selects the pre-reduction gradient transform
    (:mod:`repro.comm.compression`): ``"none"`` leaves the fp32 path
    untouched; ``"fp16"`` casts through half precision; ``"topk"``
    keeps the ``topk_fraction`` largest-magnitude elements with
    error-feedback residual accumulation.
    """

    compression: str = "none"
    topk_fraction: float = 0.1

    def __post_init__(self):
        if self.compression not in COMPRESSION_MODES:
            raise ValueError(
                f"unknown compression {self.compression!r}; "
                f"expected one of {COMPRESSION_MODES}"
            )
        if not 0.0 < self.topk_fraction <= 1.0:
            raise ValueError("topk_fraction must be in (0, 1]")

    def build_compressor(self):
        """One rank's compressor instance (``None`` for mode "none")."""
        return make_compressor(self.compression, self.topk_fraction)


def gradient_message(
    grads: Sequence[np.ndarray], compressor: Optional[GradientCompressor] = None
) -> np.ndarray:
    """One rank's step message: ``grads`` flattened in order, through
    ``compressor`` when the rank has one (its top-k residual is the
    rank's own state).  The reduction downstream is an element-wise
    rank-order MEAN, so every backend averages the same bits."""
    flat = flatten_arrays(grads)
    return flat if compressor is None else compressor.compress(flat)
