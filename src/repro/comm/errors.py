"""Typed communication errors.

MPI's default behaviour — any rank failure aborts the world — is
exactly what the paper's fully synchronous design inherits and what the
resilience layer must improve on.  These exception types let the stack
distinguish the failure modes that need different recovery:

* :class:`RankFailedError` — a peer died mid-collective (carries which
  ranks and, when known, the peer's original exception as
  ``__cause__``);
* :class:`RankEvictedError` — raised *in the evicted rank's own
  thread* when it turns out the group moved on without it (a straggler
  that out-slept the timeout);
* :class:`MessageCorruptError` — a contribution failed its checksum
  and could not be recovered by retransmission;
* :class:`QuorumLostError` — too few survivors to keep training; the
  elastic driver restarts from the last checkpoint.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

__all__ = [
    "CommError",
    "RankFailedError",
    "ProcessCrashError",
    "RankEvictedError",
    "MessageCorruptError",
    "QuorumLostError",
]


class CommError(RuntimeError):
    """Base class for communicator failures."""


class RankFailedError(CommError):
    """One or more peer ranks failed during a collective."""

    def __init__(self, message: str, failed_ranks: Sequence[int] = ()):
        super().__init__(message)
        self.failed_ranks: Tuple[int, ...] = tuple(failed_ranks)


class ProcessCrashError(RankFailedError):
    """A rank's worker *process* died (real-process backend).

    Carries how the OS reported the death: ``exitcode`` as seen by the
    supervisor (negative = killed by a signal, following the
    ``multiprocessing`` convention) and, for signal deaths, the signal
    name (``"SIGKILL"``, ``"SIGSEGV"``, ...).  Subclasses
    :class:`RankFailedError` so elastic recovery treats a SIGKILLed
    process exactly like a crashed thread — shrink and continue.
    """

    def __init__(self, rank: int, exitcode: Optional[int], signal_name: Optional[str] = None):
        how = (
            f"killed by {signal_name}"
            if signal_name
            else f"exited with code {exitcode}"
        )
        super().__init__(f"rank {rank}'s worker process {how}", failed_ranks=[rank])
        self.rank = rank
        self.exitcode = exitcode
        self.signal_name = signal_name


class RankEvictedError(CommError):
    """This rank was evicted from the group (it missed a timeout)."""

    def __init__(self, rank: int, message: str = ""):
        super().__init__(message or f"rank {rank} was evicted from the group")
        self.rank = rank


class MessageCorruptError(CommError):
    """A collective contribution failed checksum verification."""


class QuorumLostError(CommError):
    """Surviving ranks fell below the configured quorum."""

    def __init__(self, message: str, survivors: Sequence[int] = ()):
        super().__init__(message)
        self.survivors: Tuple[int, ...] = tuple(survivors)
