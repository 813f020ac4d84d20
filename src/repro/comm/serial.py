"""Serial backends: a size-1 communicator and a sequential rank group.

``SerialCommunicator`` makes single-process code and SPMD code share
one code path (the paper's single-node runs "enable the CPE ML plugin
even at the single node").

``SteppedGroup`` simulates K ranks executed one after another in the
calling thread.  It exposes *group-level* collectives over lists of
per-rank arrays.  Because all backends reduce through
:func:`repro.comm.communicator.reduce_arrays`, a stepped run of K ranks
is numerically identical to a threaded run of K ranks — which is what
lets the convergence experiments emulate 2048- and 8192-rank global
batch sizes on one machine.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.comm.communicator import Communicator, ReduceOp, reduce_arrays

__all__ = ["SerialCommunicator", "SteppedGroup"]


class SerialCommunicator(Communicator):
    """The trivial group of one rank; all collectives are identities."""

    @property
    def rank(self) -> int:
        return 0

    @property
    def size(self) -> int:
        return 1

    def allreduce(self, array: np.ndarray, op: ReduceOp = ReduceOp.SUM) -> np.ndarray:
        return reduce_arrays([np.asarray(array)], op)

    def bcast(self, array: Optional[np.ndarray], root: int = 0) -> np.ndarray:
        self._check_root(root)
        if array is None:
            raise ValueError("root rank must supply an array to bcast")
        return np.array(array, copy=True)


class SteppedGroup:
    """A group of ``size`` simulated ranks executed sequentially.

    The driver (e.g. the engine's ``SteppedBackend``) loops over ranks
    itself and calls the group-level allreduce with one array per rank.
    Statistics (`bytes_reduced`, `reductions`) track communication
    volume for reporting.
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"group size must be >= 1, got {size}")
        self._size = size
        self.reductions = 0
        self.bytes_reduced = 0

    @property
    def size(self) -> int:
        return self._size

    def allreduce(
        self, arrays: Sequence[np.ndarray], op: ReduceOp = ReduceOp.SUM
    ) -> List[np.ndarray]:
        """Reduce per-rank arrays; every rank's entry is the one result."""
        if len(arrays) != self._size:
            raise ValueError(f"expected one array per rank ({self._size}), got {len(arrays)}")
        result = reduce_arrays([np.asarray(a) for a in arrays], op)
        self.reductions += 1
        self.bytes_reduced += result.nbytes * self._size
        # One result every rank reads: the simulated ranks share one
        # replica, so nothing updates a rank's copy on its own.
        return [result] * self._size
