"""Group membership: the words a rank group keeps, and every decision on them.

Rank threads (:mod:`repro.comm.elastic`) and rank processes
(:mod:`repro.comm.process`) are two transports of one protocol.  Each
keeps its membership in one ``int64`` word array — a plain array read and
written under the group's lock for threads, a slice of the shared control
segment for processes — and :class:`Membership` is the only code that
reads or writes those words.  What stays with a transport is how it
moves payloads and how it waits.

Per rank: ``status`` (:data:`ACTIVE` / :data:`DEAD` / :data:`DONE`),
``incarnation`` (bumped by every admission), ``admit_gen`` (the first
collective the incarnation takes part in), ``join`` (the incarnation
whose resync awaits its claim, 0 for none), ``spare_joins`` (admissions
that drew a warm spare), ``resync_crc`` and ``evictions``.  Global:
``quorum``, ``quorum_lost``, the spare pool and its ``auto_respawn``
policy, and the reduction and resync counters.

The rules, each written once below:

* the **quorum** of ``n`` ranks at a fraction ``f`` is ``ceil(n f)``,
  taken on ``f`` as written (:func:`quorum_size`);
* a **survivor** is a rank that is not dead — one that finished counts;
* the **participants** of collective ``g`` are the active ranks admitted
  at or before ``g``; a collective completes over exactly them, never
  below quorum, with :func:`complete` computing its result;
* **fail** and **evict** act on the current incarnation of an active
  rank only — a stale thread or process is fenced out — and then check
  the quorum, which once lost stays lost;
* **admission** is decided once per step boundary by one **donor**, the
  lowest rank of the membership the last completed collective latched:
  first the due ``RANK_RECOVER`` / ``SPARE_JOIN`` events, then, under
  ``auto_respawn``, the remaining missing ranks in rank order while
  spares remain.  Spares used are counted from the per-rank
  ``spare_joins`` words, which only admissions write;
* a joiner **claims** its resync only while its own admission is
  pending.

Transitions store in the order a lock-free reader needs: payload and CRC
first, then status, and the pending-join word last.
"""

from __future__ import annotations

import contextlib
import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.comm.communicator import Communicator, ReduceOp, reduce_arrays
from repro.comm.errors import QuorumLostError, RankEvictedError, RankFailedError
from repro.faults.plan import FaultKind
from repro.obs.tracer import NULL_TRACER
from repro.utils import checksum
from repro.utils.logging import get_logger

__all__ = [
    "ACTIVE",
    "DEAD",
    "DONE",
    "Membership",
    "MemberComm",
    "complete",
    "donor",
    "plan_admissions",
    "quorum_size",
    "resync_crc",
    "root_died",
]

_log = get_logger("comm.membership")

# Rank status values.
ACTIVE = 0
DEAD = 1
DONE = 2

_GLOBALS = (
    "quorum", "quorum_lost", "spares", "auto_respawn",
    "reductions", "bytes_reduced", "resyncs", "resync_bytes",
)
(_QUORUM, _LOST, _SPARES, _AUTO, _REDUCTIONS, _BYTES_REDUCED, _RESYNCS,
 _RESYNC_BYTES) = range(len(_GLOBALS))
_FIELDS = (
    "status", "incarnation", "admit_gen", "join", "spare_joins", "resync_crc", "evictions",
)


class Membership:
    """The membership words of a ``world``-rank group and the decisions
    on them.  ``words`` is the group's array (a fresh one by default);
    :meth:`reset` initialises it."""

    def __init__(self, world: int, words: Optional[np.ndarray] = None):
        self.world = world
        if words is None:
            words = np.zeros(self.n_words(world), dtype=np.int64)
        self.words = words
        self._g = words[: len(_GLOBALS)]
        for i, name in enumerate(_FIELDS):
            lo = len(_GLOBALS) + i * world
            setattr(self, name, words[lo : lo + world])

    @staticmethod
    def n_words(world: int) -> int:
        return len(_GLOBALS) + len(_FIELDS) * world

    def reset(self, quorum: int, spares: int = 0, auto_respawn: bool = True) -> "Membership":
        self.words[:] = 0
        self._g[_QUORUM] = quorum
        self._g[_SPARES] = spares
        self._g[_AUTO] = int(auto_respawn)
        return self

    # -- reads ----------------------------------------------------------------

    @property
    def quorum(self) -> int:
        return int(self._g[_QUORUM])

    @property
    def quorum_lost(self) -> bool:
        return bool(self._g[_LOST])

    @property
    def spares_left(self) -> int:
        return int(self._g[_SPARES] - self.spare_joins.sum())

    def survivors(self) -> List[int]:
        return [r for r in range(self.world) if self.status[r] != DEAD]

    def participants(self, gen: int) -> List[int]:
        return [
            r for r in range(self.world)
            if self.status[r] == ACTIVE and self.admit_gen[r] <= gen
        ]

    def is_current(self, rank: int, incarnation: int) -> bool:
        """Whether ``rank`` is active at this incarnation — false for a
        stale thread or process of a rank readmitted since."""
        return self.status[rank] == ACTIVE and self.incarnation[rank] == incarnation

    def quorum_error(self) -> QuorumLostError:
        return QuorumLostError(f"group below quorum {self.quorum}", survivors=self.survivors())

    # -- fail / evict / done -------------------------------------------------

    def fail(self, rank: int, incarnation: Optional[int] = None, evicted: bool = False) -> bool:
        """Mark the current incarnation of an active rank dead (``evicted``
        counts an eviction); returns False, changing nothing, for a rank
        not active or an ``incarnation`` that is not the current one."""
        current = self.incarnation[rank] if incarnation is None else incarnation
        if not self.is_current(rank, current):
            return False
        if evicted:
            self.evictions[rank] += 1
        self.status[rank] = DEAD
        self.join[rank] = 0
        self.check_quorum()
        return True

    def done(self, rank: int, incarnation: int) -> None:
        """The rank finished its body: a survivor, no longer a participant."""
        if self.is_current(rank, incarnation):
            self.status[rank] = DONE

    def check_quorum(self) -> bool:
        """Trip ``quorum_lost`` for good when survivors fall below the
        quorum; True while the quorum stands."""
        if not self._g[_LOST]:
            n = len(self.survivors())
            if n >= self._g[_QUORUM]:
                return True
            self._g[_LOST] = 1
            _log.warning("quorum lost: %d survivors < quorum %d", n, self.quorum)
        return False

    # -- collectives ---------------------------------------------------------

    def completed(self, kind: str, arg, contributions: Mapping[int, Optional[np.ndarray]]):
        """:func:`complete` over the participants' contributions, counted."""
        payload, error = complete(kind, arg, contributions)
        if kind == "allreduce":
            self._g[_REDUCTIONS] += 1
            self._g[_BYTES_REDUCED] += payload.nbytes * len(contributions)
        return payload, error

    # -- grow-back -----------------------------------------------------------

    def admissions(
        self, members: Optional[frozenset], events: Sequence = ()
    ) -> List[Tuple[int, bool]]:
        """The donor's decision at a step boundary: ``(rank, is_spare)``
        for the ranks missing from ``members`` with no admission pending."""
        if members is None or self.quorum_lost:
            return []
        missing = [r for r in range(self.world) if r not in members and not self.join[r]]
        if not missing:
            return []
        return plan_admissions(events, missing, self.spares_left, bool(self._g[_AUTO]))

    def admit(
        self, rank: int, gen: int, spare: bool, nbytes: int, stage: Callable[[int], int]
    ) -> int:
        """Readmit a dead rank as a new incarnation that takes part from
        collective ``gen``; returns the incarnation, or 0 if refused.

        ``stage(incarnation)`` puts the ``nbytes`` resync payload where
        the joiner will look for it and returns the payload's CRC; it runs
        once the admission is granted and before any word is written.
        """
        if (
            self.quorum_lost
            or not 0 <= rank < self.world
            or self.status[rank] != DEAD
            or self.join[rank]
            or (spare and self.spares_left <= 0)
        ):
            return 0
        incarnation = int(self.incarnation[rank]) + 1
        self.resync_crc[rank] = stage(incarnation)
        self.admit_gen[rank] = gen
        self.incarnation[rank] = incarnation
        self.spare_joins[rank] += int(spare)
        self._g[_RESYNCS] += 1
        self._g[_RESYNC_BYTES] += nbytes
        self.status[rank] = ACTIVE
        self.join[rank] = incarnation
        return incarnation

    def claim(self, rank: int, incarnation: int) -> int:
        """The joiner's claim check: clears the pending join and returns
        the CRC its resync payload must hash to."""
        if self.quorum_lost:
            raise self.quorum_error()
        pending = 0 < incarnation == self.join[rank]
        if not pending or not self.is_current(rank, incarnation):
            raise RankEvictedError(rank)
        self.join[rank] = 0
        return int(self.resync_crc[rank])

    # -- reporting -----------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """The group's membership counters (one ``rejoins`` entry per admission)."""
        def repeated(counts):
            return [r for r in range(self.world) for _ in range(int(counts[r]))]

        return {
            "reductions": int(self._g[_REDUCTIONS]),
            "bytes_reduced": int(self._g[_BYTES_REDUCED]),
            "survivors": self.survivors(),
            "evicted_ranks": repeated(self.evictions),
            "rejoins": repeated(self.incarnation),
            "resyncs": int(self._g[_RESYNCS]),
            "resync_bytes": int(self._g[_RESYNC_BYTES]),
            "spares_used": int(self.spare_joins.sum()),
        }


class MemberComm(Communicator):
    """One rank's handle to a group governed by a :class:`Membership`: the
    :class:`Communicator` API both transports share.

    A transport implements ``_collective(kind, arg, array) -> (payload,
    members)``, returning a payload this rank owns, plus ``admit`` and
    ``await_admission``; ``guard`` is the lock its words are read under.
    ``rank`` and ``size`` keep their *original* values for the life of
    the group (shards and RNG streams stay stable across shrinks).  Every
    collective is one ``comm`` span (with its ``nbytes``) on ``tracer``,
    on this rank's track, whatever the transport.
    """

    def __init__(
        self, rank: int, m: Membership, incarnation: int, guard=contextlib.nullcontext(),
        tracer=NULL_TRACER,
    ):
        self._rank = rank
        self._m = m
        self._incarnation = incarnation
        self._guard = guard
        self._tracer = tracer
        # Membership of the last collective this rank completed.  Unlike
        # a live read of ``active_ranks``, this is fixed at collective
        # completion, so every participant observes the same value for
        # the same step — a concurrent admission or failure between two
        # collectives cannot leak into per-epoch accounting.
        self.last_members: Optional[frozenset] = None

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._m.world

    @property
    def incarnation(self) -> int:
        return self._incarnation

    @property
    def active_ranks(self) -> List[int]:
        """The survivors."""
        with self._guard:
            return self._m.survivors()

    def joins_due(self, events: Sequence = ()) -> List[Tuple[int, bool]]:
        """This step boundary's admissions, ``(rank, is_spare)``, for its
        donor (:meth:`Membership.admissions`); ``events`` are the recovery
        events the donor took from its injector."""
        with self._guard:
            return self._m.admissions(self.last_members, events)

    def _latched(self, kind: str, arg, array: Optional[np.ndarray]):
        nbytes = 0 if array is None else array.nbytes
        with self._tracer.span(kind, cat="comm", track=self._rank, nbytes=nbytes):
            payload, self.last_members = self._collective(kind, arg, array)
        return payload

    def allreduce(self, array: np.ndarray, op: ReduceOp = ReduceOp.SUM) -> np.ndarray:
        return self._latched("allreduce", op, np.asarray(array))

    def bcast(self, array: Optional[np.ndarray], root: int = 0) -> np.ndarray:
        self._check_root(root)
        if self._rank == root and array is None:
            raise ValueError("root rank must supply an array to bcast")
        return self._latched("bcast", root, np.asarray(array) if self._rank == root else None)


def donor(members: Optional[frozenset]) -> Optional[int]:
    """The rank that decides admissions at a step boundary: the lowest of
    the membership the last completed collective latched."""
    return min(members) if members else None


def quorum_size(n: int, fraction: float) -> int:
    """The survivors a group of ``n`` ranks needs at quorum ``fraction``:
    ``ceil(n * fraction)`` on the decimal the fraction is written as, so
    0.56 of 25 is 14 (the float product 14.000000000000002 would round
    up to 15)."""
    return math.ceil(Fraction(str(fraction)) * n)


def plan_admissions(
    events: Iterable, missing: Sequence[int], spares_left: int, auto_respawn: bool
) -> List[Tuple[int, bool]]:
    """Which of the ``missing`` ranks to admit, as ``(rank, is_spare)``.

    ``RANK_RECOVER`` readmits its rank without a spare (the original node
    came back); ``SPARE_JOIN`` draws one (``rank=None`` takes the lowest
    missing rank).  Then, under ``auto_respawn``, spares replace the
    remaining missing ranks in rank order.  No rank is admitted twice and
    no more spares are drawn than are left.
    """
    admissions: List[Tuple[int, bool]] = []
    open_ranks = sorted(missing)
    for ev in events:
        rank = ev.rank
        if ev.kind is FaultKind.RANK_RECOVER:
            spare = False
        elif ev.kind is FaultKind.SPARE_JOIN and spares_left > 0:
            spare = True
            if rank is None and open_ranks:
                rank = open_ranks[0]
        else:
            continue
        if rank in open_ranks:
            open_ranks.remove(rank)
            admissions.append((rank, spare))
            spares_left -= spare
    if auto_respawn:
        admissions.extend((rank, True) for rank in open_ranks[:spares_left])
    return admissions


def root_died(root: int) -> RankFailedError:
    return RankFailedError(f"bcast root {root} died before contributing", failed_ranks=[root])


def complete(kind: str, arg, contributions: Mapping[int, Optional[np.ndarray]]):
    """The result of one collective over its participants' contributions:
    ``(payload, error)``, in rank order whatever order they arrived in."""
    if kind == "allreduce":
        return reduce_arrays([contributions[r] for r in sorted(contributions)], arg), None
    if kind == "bcast":
        if contributions.get(arg) is None:
            return None, root_died(arg)
        return np.asarray(contributions[arg]), None
    raise RuntimeError(f"unknown collective {kind!r}")


def resync_crc(payload: Dict[str, np.ndarray]) -> int:
    """CRC32 over every entry of a resync payload (keys sorted) —
    0-d counters included, unlike a checkpoint's CRC."""
    crc = 0
    for key in sorted(payload):
        crc = checksum.crc32(np.ascontiguousarray(payload[key]), crc)
    return crc
