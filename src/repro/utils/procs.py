"""Small OS-process helpers shared by the entry points, the process
backend and sweepers.

The real-process execution backend (``repro.comm.process``) and the
crash-debris sweepers (stale checkpoint temp files, orphaned shared
memory segments) all need one primitive: "is the process that created
this still alive?".  Centralising it here keeps the liveness convention
identical everywhere — signal 0 probes, with EPERM counted as alive
(the pid exists but belongs to someone else, so its debris is not ours
to reap).
"""

from __future__ import annotations

import errno
import os

__all__ = ["pid_alive", "raise_malloc_thresholds"]

#: ``mallopt`` parameters, from glibc's ``malloc.h``.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def pid_alive(pid: int) -> bool:
    """True when a process with this pid currently exists.

    ``kill(pid, 0)`` performs the permission checks and existence test
    without delivering a signal.  ``EPERM`` means the pid exists under
    another uid — alive for our purposes.  Pids ``<= 0`` are never
    "a process we are tracking" (0/negatives address process groups),
    so they report dead rather than probing the whole group.

    A live answer can still be a recycled pid (the original writer died
    and the OS reused its number).  Sweepers therefore treat "alive" as
    "do not touch", never as proof the artifact is in active use —
    erring on the side of leaving debris for a later sweep.
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except OSError as exc:
        if exc.errno == errno.EPERM:
            return True
        return False
    return True


def raise_malloc_thresholds() -> None:
    """Keep a stepping process's temporaries in memory it has already
    touched: glibc serves blocks up to 32 MiB from its heap instead of a
    fresh ``mmap``, and keeps up to 64 MiB of freed heap instead of
    returning it.

    Until a process frees its first large block, glibc maps every block
    over 128 KiB on its own and unmaps it on ``free``, so each training or
    inference step faults in its larger temporaries afresh (thousands of
    minor faults a ``scaled_32`` step).  Only an entry point calls this —
    the CLI's ``main`` and a rank process's — never an import: in a process
    whose work is not steps it only holds memory longer
    (``docs/architecture.md``, "What a process imports").  Without glibc's
    ``mallopt`` there is nothing to set.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
