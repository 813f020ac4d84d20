"""The abstract communicator API.

Modeled on the MPI subset a synchronous data-parallel trainer needs
(and the subset the CPE ML Plugin wraps): allreduce for gradient and
loss averaging, and broadcast for initial-parameter distribution ("the
initial model parameters are broadcast from rank 0 to all other
ranks").

All backends reduce in rank order with a fixed association, so results
are bitwise reproducible for a given rank count regardless of thread
scheduling.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Optional, Sequence

import numpy as np

__all__ = ["ReduceOp", "Communicator", "reduce_arrays"]


class ReduceOp(enum.Enum):
    """Reduction operation for collectives."""

    SUM = "sum"
    MEAN = "mean"
    MAX = "max"
    MIN = "min"


def reduce_arrays(arrays: Sequence[np.ndarray], op: ReduceOp = ReduceOp.SUM) -> np.ndarray:
    """Reduce per-rank arrays in rank order (deterministic association).

    This single helper is shared by every backend and by the schedule
    simulations, so all code paths produce identical numerics.  A rank's
    ``inf`` / ``nan`` is data here, not an error: it must survive the
    reduction so every rank reaches the same fp16 loss-scale overflow
    verdict, hence the ``errstate``.
    """
    if not arrays:
        raise ValueError("reduce_arrays needs at least one array")
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise ValueError(f"mismatched shapes in reduction: {sorted(shapes)}")
    acc = np.array(arrays[0], copy=True)
    if op in (ReduceOp.SUM, ReduceOp.MEAN):
        with np.errstate(over="ignore", invalid="ignore"):
            for a in arrays[1:]:
                acc += a
        if op is ReduceOp.MEAN:
            acc /= len(arrays)
    elif op is ReduceOp.MAX:
        for a in arrays[1:]:
            np.maximum(acc, a, out=acc)
    elif op is ReduceOp.MIN:
        for a in arrays[1:]:
            np.minimum(acc, a, out=acc)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unsupported op {op}")
    return acc


class Communicator(ABC):
    """Per-rank handle to a group of ``size`` ranks.

    Collectives must be called by *every* rank of the group, in the
    same order — standard MPI semantics.
    """

    @property
    @abstractmethod
    def rank(self) -> int:
        """This rank's index in ``[0, size)``."""

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of ranks in the group."""

    @abstractmethod
    def allreduce(self, array: np.ndarray, op: ReduceOp = ReduceOp.SUM) -> np.ndarray:
        """Reduce ``array`` across ranks; every rank gets the result."""

    @abstractmethod
    def bcast(self, array: Optional[np.ndarray], root: int = 0) -> np.ndarray:
        """Broadcast ``array`` from ``root`` to every rank."""

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise ValueError(f"root {root} out of range for size {self.size}")
