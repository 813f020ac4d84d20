"""A second core for one call: one helper thread beside the caller.

A call with enough independent work runs part of it on one helper thread
(:func:`beside_helper`) while the caller runs the rest, and joins the
helper before it returns or raises, so no thread outlives the call.  Two
places use it, and only these two: a large convolution
(:mod:`repro.primitives.conv3d`) and an untaped batched forward
(:meth:`repro.core.model.CosmoFlowModel.predict_normalized`).

Whether a call starts the helper is one rule (:func:`helper_pays`): the
work handed over pays for a thread start + join, and the helper finds a
core of its own (:func:`spare_core`) — the BLAS runs one thread, and the
CPUs number two for every thread, in every rank process, that may be
busy on them.
"""

from __future__ import annotations

import os
import threading
from typing import Optional

import numpy as np

__all__ = ["HELPER_THREAD_NAME", "beside_helper", "helper_pays", "share_cores", "spare_core"]

#: The name of the one helper thread, whichever call started it.
HELPER_THREAD_NAME = "core-helper"

#: Fewest GEMM multiply-adds a helper thread must take over for the split
#: to pay for its start + join and for the GIL hand-offs between the two
#: threads.  On a 2-vCPU host it paid from ~20 M with the second vCPU idle
#: and only from ~40 M with another process busy on it half the time.
_HELPER_MIN_MACS = 32_000_000


def _blas_name() -> str:
    """The BLAS NumPy was built against, as NumPy reports it."""
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


def _blas_threads() -> Optional[int]:
    """Threads the BLAS under NumPy runs a large GEMM on, where this module
    knows how to tell: for OpenBLAS (what NumPy's wheels ship), read as it
    reads it when it loads — the first of its thread-count variables set to
    a positive integer, else one per CPU.  ``None`` for any other BLAS
    (MKL, Accelerate, ...), whose threading is not modelled here."""
    if "openblas" not in _blas_name().lower():
        return None
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return os.cpu_count() or 1


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


#: Whether a GEMM runs on one thread.  With a threaded BLAS the GEMMs
#: already fill the cores and a helper only oversubscribes them
#: (``scaled_32`` conv2's backward measured 2.9 -> 3.4 ms with two BLAS
#: threads), so nothing splits; nor where the BLAS is not known.
_ONE_BLAS_THREAD = _blas_threads() == 1
#: CPUs this process may run on.
_CPUS = _usable_cpus()
#: Processes running convolutions on those CPUs at once, this one included:
#: the ranks of a process group, which each worker declares
#: (:func:`share_cores`).
_sharing_processes = 1


def share_cores(processes: int) -> None:
    """Count this process as one of ``processes`` that run convolutions on
    the same CPUs at once (the ranks of a process group), so that a call
    starts a helper thread only where each of them would have a core for
    it."""
    global _sharing_processes
    _sharing_processes = max(1, int(processes))


def spare_core() -> bool:
    """Whether a helper thread would find a core of its own now: the BLAS
    runs one thread per GEMM and the CPUs number at least two for every
    thread that may be busy on them — each live thread of this process (the
    ranks of a threaded group, pipeline readers, a helper already running)
    in each process sharing them.  Two ranks on two CPUs, as threads or as
    processes, ran slower with a helper each, so they do not split."""
    return _ONE_BLAS_THREAD and _CPUS >= 2 * threading.active_count() * _sharing_processes


def helper_pays(helper_macs: int) -> bool:
    """Whether to hand ``helper_macs`` GEMM multiply-adds to a helper
    thread: enough to pay for its start + join, and a core to run on."""
    return helper_macs >= _HELPER_MIN_MACS and spare_core()


def beside_helper(helper_work, own_work):
    """``(own_work(), helper_work())``, the second run on the helper thread
    while the caller runs the first.  The helper is joined before anything
    is returned or raised, so no thread outlives the call; its exception is
    re-raised here (the caller's own takes precedence).  Thread-local state
    is the caller's alone: ``helper_work`` sets up what it needs."""
    done = {}

    def run():
        try:
            done["result"] = helper_work()
        except BaseException as exc:  # re-raised on the caller's thread
            done["error"] = exc

    helper = threading.Thread(target=run, name=HELPER_THREAD_NAME)
    helper.start()
    try:
        own = own_work()
    finally:
        helper.join()
    if "error" in done:
        raise done["error"]
    return own, done["result"]
