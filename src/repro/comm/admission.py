"""Grow-back decisions shared by the thread and process rank groups.

Which dead ranks to readmit at a step boundary, and what a joiner's
resync payload must hash to, are policy — the same for rank threads
(:mod:`repro.comm.elastic`) and rank processes
(:mod:`repro.comm.process`), which differ only in where the membership
words live.  Both call the two pure functions here.
"""

from __future__ import annotations

import zlib
from typing import Collection, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.faults.plan import FaultKind

__all__ = ["plan_admissions", "resync_crc"]


def plan_admissions(
    events: Iterable,
    dead: Collection[int],
    spares_left: int,
    queued: Sequence[int],
) -> Tuple[List[Tuple[int, bool]], int]:
    """Resolve which ranks to admit now.

    ``events`` are the ``RANK_RECOVER``/``SPARE_JOIN`` fault events due
    at this step; ``dead`` the ranks that may be admitted (in range, not
    active, no admission in flight); ``queued`` the dead ranks a spare
    was reserved for at eviction time, in the order they are served.
    Returns ``(admissions, spares_left)`` with admissions as ``(rank,
    is_spare)``; the queue is always served in full.

    ``SPARE_JOIN`` draws from the spare pool (``rank=None`` takes the
    lowest dead rank); ``RANK_RECOVER`` does not — the original node
    came back — and cancels a respawn queued for the same rank,
    returning its spare.  A queued rank that is no longer admissible
    returns its spare too.  No rank is admitted twice.
    """
    admissions: List[Tuple[int, bool]] = []
    open_ranks = set(dead)
    queued = list(queued)
    for ev in events:
        rank = ev.rank
        if ev.kind is FaultKind.RANK_RECOVER:
            if rank in open_ranks:
                open_ranks.remove(rank)
                admissions.append((rank, False))
                if rank in queued:
                    queued.remove(rank)
                    spares_left += 1
        elif ev.kind is FaultKind.SPARE_JOIN and spares_left > 0:
            if rank is None and open_ranks:
                rank = min(open_ranks)
            if rank in open_ranks:
                open_ranks.remove(rank)
                admissions.append((rank, True))
                spares_left -= 1
    for rank in queued:
        if rank in open_ranks:
            open_ranks.remove(rank)
            admissions.append((rank, True))
        else:
            spares_left += 1
    return admissions, spares_left


def resync_crc(payload: Dict[str, np.ndarray]) -> int:
    """CRC32 over every entry of a resync payload (keys sorted) —
    0-d counters included, unlike a checkpoint's CRC."""
    crc = 0
    for key in sorted(payload):
        arr = np.ascontiguousarray(np.asarray(payload[key]))
        crc = zlib.crc32(arr.tobytes(), crc)
    return crc
