"""The thread rank group: one OS thread per rank, collectives that
survive rank loss.

``ThreadedGroup(size).run(fn)`` launches ``size`` threads, each
executing ``fn(comm)`` with a rank-local :class:`ElasticComm`.  NumPy
releases the GIL inside BLAS kernels, so gradient computation on
different ranks genuinely overlaps — the in-process analogue of the
paper's one-MPI-rank-per-node layout.

The paper's training mode is *fully synchronous* (Algorithm 2): every
rank contributes to every allreduce, so one dead or hung rank stalls
all 8192.  That mode is this group at ``quorum == size`` (the default):
any rank lost fails the run, like an MPI job.  A lower quorum makes the
same group elastic:

* membership is dynamic — a rank that crashes (raises out of its rank
  body) is removed from the group, and in-flight collectives complete
  over the survivors ("shrink and continue");
* every wait is bounded — a rank that fails to arrive at a collective
  within ``timeout_s`` is **evicted** by the peers that did arrive (the
  timeout is the heartbeat: arriving at a collective is proof of life),
  and the straggler itself gets a :class:`RankEvictedError` when it
  finally shows up; a rank still running ``timeout_s`` after the first
  rank returned is evicted by the launching thread, so ``run()`` never
  waits out a stall no collective can see;
* reductions stay deterministic — contributions are reduced in
  original-rank order through the shared
  :func:`~repro.comm.communicator.reduce_arrays`, so a fault-free run
  is bitwise identical to the sequential
  :class:`~repro.comm.serial.SteppedGroup`, and a post-crash run is
  exactly the fixed-membership result over the surviving rank set
  (``MEAN`` renormalizes by survivor count);
* contributions can be checksummed — when a
  :class:`~repro.faults.FaultInjector` with message-corruption events
  is attached, each contribution carries a CRC32; a corrupted "wire
  copy" is detected at reduce time and recovered by retransmitting the
  sender's pristine source buffer (counted in ``retransmits``);
* the **quorum** bounds degradation — when survivors fall below it,
  every live rank raises :class:`QuorumLostError` and ``run()`` raises
  it with the first failure as ``__cause__``; the backend restarts from
  the last checkpoint or gives up, as its policy says;
* membership grows back — a recovered rank (or a warm spare assuming a
  dead rank's identity) is **admitted** at a generation boundary by a
  surviving rank, which donates a CRC-verified state resync payload
  (any survivor is a valid donor: synchronous SGD keeps every replica
  bitwise identical).  Admission adds the joiner to ``active`` before
  the admitting rank contributes to the current collective, so the
  group waits for the joiner's first contribution — it participates in
  the very step it was admitted at, restoring the effective global
  batch.  Per-rank *incarnation numbers* fence the protocol: a stale
  thread of an evicted rank can never contribute to (or fail) its
  readmitted successor.
"""

from __future__ import annotations

import threading
import time
import zlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.admission import plan_admissions, resync_crc
from repro.comm.communicator import Communicator, ReduceOp, reduce_arrays
from repro.comm.errors import (
    MessageCorruptError,
    QuorumLostError,
    RankEvictedError,
    RankFailedError,
)
from repro.obs.tracer import NULL_TRACER
from repro.utils.logging import get_logger

__all__ = ["ThreadedGroup", "ElasticComm"]

_log = get_logger("comm.elastic")


class _Contribution:
    """One rank's payload for the pending collective."""

    __slots__ = ("wire", "crc", "source")

    def __init__(self, wire: Optional[np.ndarray], crc: Optional[int], source):
        self.wire = wire
        self.crc = crc
        self.source = source


class _JoinTicket:
    """An admitted joiner's pending state resync."""

    __slots__ = ("payload", "crc", "incarnation", "spare")

    def __init__(self, payload: Dict[str, np.ndarray], crc: int, incarnation: int, spare: bool):
        self.payload = payload
        self.crc = crc
        self.incarnation = incarnation
        self.spare = spare


class _ElasticState:
    """Membership, pending collective, and result shared by all ranks."""

    def __init__(
        self,
        size: int,
        timeout_s: float,
        quorum: int,
        injector=None,
        tracer=None,
        spares: int = 0,
        auto_respawn: bool = True,
    ):
        self.size = size
        self.timeout_s = timeout_s
        self.quorum = quorum
        self.injector = injector
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.checksums = injector is not None and injector.corrupts_messages
        self.cond = threading.Condition()
        self.active: set = set(range(size))
        self.slots: Dict[int, _Contribution] = {}
        self.pending_op: Optional[Tuple] = None
        self.generation = 0
        # (generation, payload, error, active-set) of the last finished
        # collective; every contributor reads it before its next
        # collective can overwrite it.
        self.result: Tuple = (-1, None, None, frozenset())
        self.quorum_lost = False
        self.failures: Dict[int, BaseException] = {}
        self.evictions: List[Tuple[int, int]] = []  # (generation, rank)
        self.reductions = 0
        self.bytes_reduced = 0
        self.retransmits = 0
        # -- grow-back state ------------------------------------------------
        self.spares_total = spares
        self.spares_left = spares
        self.auto_respawn = auto_respawn
        #: rank -> current incarnation; a communicator built for an
        #: older incarnation is fenced out of every protocol step.
        self.incarnation: Dict[int, int] = {r: 0 for r in range(size)}
        self.joining: Dict[int, _JoinTicket] = {}
        #: dead ranks with a spare reserved, awaiting admission at the
        #: next step boundary.
        self.respawn_queue: List[int] = []
        self.rejoins: List[Tuple[int, int]] = []  # (generation, rank)
        self.resyncs = 0
        self.resync_bytes = 0
        #: installed by the group before run(); called with ``cond``
        #: held, must only spawn the joiner thread (never block).
        self.spawn_joiner: Optional[Callable[[int, int], None]] = None
        #: when the first rank returned from its body; the rest then get
        #: ``timeout_s`` to follow (see ``ThreadedGroup._join``).
        self.returned_at: Optional[float] = None

    # All methods below require ``self.cond`` to be held by the caller.

    def is_member_locked(self, rank: int, incarnation: int) -> bool:
        """Whether ``rank`` is active *at this incarnation* — false for
        a stale thread of a rank that was readmitted since."""
        return rank in self.active and self.incarnation.get(rank, 0) == incarnation

    def _check_quorum_locked(self) -> None:
        if not self.quorum_lost and len(self.active) < self.quorum:
            self.quorum_lost = True
            if self.tracer.enabled:
                self.tracer.instant(
                    "quorum-lost",
                    cat="comm",
                    track="driver",
                    survivors=len(self.active),
                    quorum=self.quorum,
                )
            _log.warning(
                "quorum lost: %d survivors < quorum %d", len(self.active), self.quorum
            )

    def _payloads_locked(self) -> Dict[int, Optional[np.ndarray]]:
        """Checksum-validated contributions, retransmitting corrupt ones."""
        out: Dict[int, Optional[np.ndarray]] = {}
        for r in sorted(self.slots):
            c = self.slots[r]
            if c.crc is not None and c.wire is not None:
                if zlib.crc32(np.ascontiguousarray(c.wire).tobytes()) != c.crc:
                    if c.source is None:
                        raise MessageCorruptError(
                            f"rank {r}'s contribution corrupt and unrecoverable"
                        )
                    self.retransmits += 1
                    if self.tracer.enabled:
                        self.tracer.instant(
                            "retransmit", cat="comm", track=r, collective=self.generation
                        )
                    _log.warning(
                        "corrupt contribution from rank %d in collective %d — "
                        "retransmitted", r, self.generation,
                    )
                    out[r] = np.asarray(c.source)
                    continue
            out[r] = c.wire
        return out

    def finish_locked(self) -> None:
        """Complete the pending collective over the active contributors."""
        kind = self.pending_op[0]
        error: Optional[BaseException] = None
        payload: Any = None
        try:
            contribs = self._payloads_locked()
            ranks = sorted(r for r in contribs if r in self.active)
            if kind == "allreduce":
                op = self.pending_op[1]
                arrays = [contribs[r] for r in ranks]
                payload = reduce_arrays(arrays, op)
                self.reductions += 1
                self.bytes_reduced += payload.nbytes * len(arrays)
            elif kind == "bcast":
                root = self.pending_op[1]
                if root not in self.active or contribs.get(root) is None:
                    error = RankFailedError(
                        f"bcast root {root} died before contributing",
                        failed_ranks=[root],
                    )
                else:
                    payload = np.asarray(contribs[root])
            elif kind == "gather":
                payload = {r: np.array(contribs[r], copy=True) for r in ranks}
            elif kind == "barrier":
                payload = None
            else:  # pragma: no cover - closed set
                error = RuntimeError(f"unknown collective {kind!r}")
        except BaseException as exc:  # noqa: BLE001 - delivered to every rank
            error = exc
        self.result = (self.generation, payload, error, frozenset(self.active))
        self.generation += 1
        self.slots.clear()
        self.pending_op = None
        self.cond.notify_all()

    def maybe_finish_locked(self) -> None:
        """Finish the pending collective if every active rank arrived."""
        if self.pending_op is not None and self.active and set(self.slots) >= self.active:
            self.finish_locked()

    def mark_failed(
        self, rank: int, exc: BaseException, incarnation: Optional[int] = None
    ) -> None:
        """A rank died: shrink the group and unblock any waiters.

        ``incarnation`` (when given) fences stale threads: a leftover
        thread of an evicted rank that dies *after* the rank was
        readmitted must not take down its successor.
        """
        with self.cond:
            if incarnation is not None and self.incarnation.get(rank, 0) != incarnation:
                _log.warning(
                    "stale thread of rank %d (incarnation %d) died (%r); ignored",
                    rank, incarnation, exc,
                )
                return
            if rank not in self.active and rank in self.failures:
                return
            self.active.discard(rank)
            self.slots.pop(rank, None)
            self.joining.pop(rank, None)
            self.failures[rank] = exc
            if self.tracer.enabled:
                self.tracer.instant(
                    "rank-failed", cat="comm", track=rank, cause=type(exc).__name__
                )
            _log.warning("rank %d failed (%r); %d survivors", rank, exc, len(self.active))
            self._check_quorum_locked()
            self._reserve_spare_locked(rank)
            if not self.quorum_lost:
                self.maybe_finish_locked()
            self.cond.notify_all()

    def evict_locked(self, rank: int, waited_s: float) -> None:
        self.active.discard(rank)
        self.slots.pop(rank, None)
        self.joining.pop(rank, None)
        self.evictions.append((self.generation, rank))
        if self.tracer.enabled:
            self.tracer.instant(
                "eviction", cat="comm", track=rank, collective=self.generation
            )
        _log.warning(
            "rank %d evicted after %.2fs without a heartbeat (collective %d); "
            "%d survivors", rank, waited_s, self.generation, len(self.active),
        )
        self._check_quorum_locked()
        self._reserve_spare_locked(rank)

    # -- grow-back (all require ``cond`` held unless noted) -----------------

    def _reserve_spare_locked(self, rank: int) -> None:
        """Reserve a warm spare to replace a dead rank, if policy allows.

        Reservation happens at eviction/failure time (not admission
        time) so the spare budget is spent in a deterministic order;
        the actual join lands at the next step boundary when a survivor
        services the respawn queue.
        """
        if (
            not self.auto_respawn
            or self.spares_left <= 0
            or self.quorum_lost
            or self.spawn_joiner is None
            or rank in self.respawn_queue
        ):
            return
        self.spares_left -= 1
        self.respawn_queue.append(rank)
        _log.info(
            "spare reserved for dead rank %d (%d spare(s) left)",
            rank, self.spares_left,
        )

    def admit_locked(self, rank: int, payload: Dict[str, np.ndarray], spare: bool) -> bool:
        """Admit ``rank`` with a state resync, spawning its thread.

        Called by the admitting survivor *before* it contributes to the
        current step's collective, so the pending (or next) collective
        cannot finish without the joiner — its first contribution lands
        in the very step it was admitted at.
        """
        if (
            self.quorum_lost
            or self.spawn_joiner is None
            or rank in self.active
            or rank in self.joining
            or not 0 <= rank < self.size
        ):
            return False
        payload = {k: np.array(v, copy=True) for k, v in payload.items()}
        crc = resync_crc(payload)
        nbytes = sum(int(np.asarray(v).nbytes) for v in payload.values())
        incarnation = self.incarnation.get(rank, 0) + 1
        self.incarnation[rank] = incarnation
        self.joining[rank] = _JoinTicket(payload, crc, incarnation, spare)
        self.active.add(rank)
        self.rejoins.append((self.generation, rank))
        self.resyncs += 1
        self.resync_bytes += nbytes
        if self.tracer.enabled:
            self.tracer.instant(
                "rejoin-admitted",
                cat="comm",
                track=rank,
                collective=self.generation,
                spare=spare,
                incarnation=incarnation,
            )
            self.tracer.instant("resync", cat="comm", track=rank, nbytes=nbytes)
        _log.info(
            "rank %d admitted (%s, incarnation %d) at collective %d; "
            "resync %d bytes; %d active",
            rank, "spare" if spare else "recovered", incarnation,
            self.generation, nbytes, len(self.active),
        )
        self.spawn_joiner(rank, incarnation)
        self.cond.notify_all()
        return True


class ElasticComm(Communicator):
    """Per-rank handle to a :class:`ThreadedGroup`.

    ``rank`` and ``size`` keep their *original* values for the life of
    the group (shards and RNG streams stay stable across shrinks);
    ``active_ranks`` reports current membership.
    """

    def __init__(self, rank: int, state: _ElasticState, incarnation: int = 0):
        self._rank = rank
        self._st = state
        self._incarnation = incarnation
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
        return self._st.size

    @property
    def incarnation(self) -> int:
        return self._incarnation

    @property
    def active_ranks(self) -> List[int]:
        with self._st.cond:
            return sorted(self._st.active)

    # -- grow-back protocol -------------------------------------------------

    @property
    def has_pending_respawns(self) -> bool:
        """Whether dead ranks with reserved spares await admission.

        Read without the lock — a respawn queued during step ``s``'s
        collective is visible to every rank by the top of step ``s+1``
        (the queueing happens before the collective finishes), which is
        when this is consulted.
        """
        return bool(self._st.respawn_queue)

    def joins_due(self, events: Sequence = ()) -> List[Tuple[int, bool]]:
        """Resolve which ranks to admit now; returns ``(rank, is_spare)``.

        ``events`` are the ``RANK_RECOVER``/``SPARE_JOIN`` fault events
        the caller consumed from the injector for this step; queued
        auto-respawns (spares reserved at eviction time) are drained
        too (:func:`~repro.comm.admission.plan_admissions` decides).
        """
        st = self._st
        if not events and not st.respawn_queue:
            return []
        with st.cond:
            if st.quorum_lost:
                return []
            dead = set(range(st.size)) - st.active - set(st.joining)
            due, st.spares_left = plan_admissions(
                events, dead, st.spares_left, st.respawn_queue
            )
            st.respawn_queue.clear()
        return due

    def admit(self, rank: int, payload: Dict[str, np.ndarray], spare: bool = False) -> bool:
        """Admit ``rank`` with a full state resync (see module docstring)."""
        with self._st.cond:
            return self._st.admit_locked(rank, payload, spare)

    def await_admission(self) -> Dict[str, np.ndarray]:
        """Claim this joiner's CRC-verified resync payload.

        Called once by the joiner thread before its first collective.
        Raises :class:`QuorumLostError` if the group collapsed while
        the resync was in flight, and :class:`MessageCorruptError` if
        the payload fails its CRC (the joiner then fails and the group
        simply stays shrunk).
        """
        st = self._st
        with st.cond:
            if st.quorum_lost:
                raise QuorumLostError(
                    f"group below quorum {st.quorum}", survivors=sorted(st.active)
                )
            ticket = st.joining.get(self._rank)
            if ticket is not None and ticket.incarnation == self._incarnation:
                # Claim only our own ticket: a stale claimant must not
                # consume (and thereby lose) its successor's resync.
                del st.joining[self._rank]
        if ticket is None or ticket.incarnation != self._incarnation:
            raise RankEvictedError(self._rank)
        if resync_crc(ticket.payload) != ticket.crc:
            raise MessageCorruptError(
                f"resync payload for rank {self._rank} failed CRC verification"
            )
        return ticket.payload

    # -- the one collective engine ----------------------------------------

    def _collective(self, op: Tuple, array: Optional[np.ndarray]):
        st = self._st
        if not st.tracer.enabled:
            return self._collective_inner(op, array)
        nbytes = 0 if array is None else int(np.asarray(array).nbytes)
        with st.tracer.span(op[0], cat="comm", track=self._rank, nbytes=nbytes):
            return self._collective_inner(op, array)

    def _collective_inner(self, op: Tuple, array: Optional[np.ndarray]):
        st = self._st
        with st.cond:
            if st.quorum_lost:
                raise QuorumLostError(
                    f"group below quorum {st.quorum}", survivors=sorted(st.active)
                )
            if not st.is_member_locked(self._rank, self._incarnation):
                # Evicted — or a stale thread of a readmitted rank, fenced
                # out before it can contribute to its successor's slot.
                raise RankEvictedError(self._rank)
            if st.pending_op is None:
                st.pending_op = op
            elif st.pending_op != op:
                raise RuntimeError(
                    f"collective mismatch: rank {self._rank} called {op!r} while "
                    f"the group is in {st.pending_op!r}"
                )
            st.slots[self._rank] = self._contribution(array)
            gen = st.generation
            st.maybe_finish_locked()
            deadline = time.monotonic() + st.timeout_s
            while st.generation == gen and not st.quorum_lost:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # Heartbeat expired: the ranks that never arrived are
                    # presumed dead — evict them and continue without them.
                    missing = sorted(st.active - set(st.slots))
                    for r in missing:
                        st.evict_locked(r, st.timeout_s)
                    if not st.quorum_lost:
                        st.maybe_finish_locked()
                    st.cond.notify_all()
                    break
                st.cond.wait(remaining)
            if st.generation == gen and st.quorum_lost:
                # Nothing was published for our collective before quorum
                # was lost.  (If the generation DID advance, publication
                # happened strictly before the loss — once quorum_lost
                # is set no collective can finish — so consume the
                # result and let the next collective raise: whether this
                # thread woke before or after the flag was set must not
                # change the outcome.)
                raise QuorumLostError(
                    f"group below quorum {st.quorum}", survivors=sorted(st.active)
                )
            rgen, payload, error, members = st.result
            if rgen != gen:  # pragma: no cover - protocol invariant
                raise RuntimeError(
                    f"collective protocol error: expected generation {gen}, "
                    f"got {rgen}"
                )
            if error is not None:
                raise error
            self.last_members = members
            return payload, members

    def _contribution(self, array: Optional[np.ndarray]) -> _Contribution:
        st = self._st
        if array is None:
            return _Contribution(None, None, None)
        arr = np.asarray(array)
        if not st.checksums:
            return _Contribution(arr, None, None)
        crc = zlib.crc32(np.ascontiguousarray(arr).tobytes())
        wire = st.injector.corrupt_message(self._rank, st.generation, arr)
        return _Contribution(wire, crc, arr)

    # -- Communicator API ---------------------------------------------------

    def allreduce(self, array: np.ndarray, op: ReduceOp = ReduceOp.SUM) -> np.ndarray:
        payload, _ = self._collective(("allreduce", op), np.asarray(array))
        return np.array(payload, copy=True)

    def bcast(self, array: Optional[np.ndarray], root: int = 0) -> np.ndarray:
        self._check_root(root)
        if self._rank == root and array is None:
            raise ValueError("root rank must supply an array to bcast")
        payload, _ = self._collective(
            ("bcast", root), np.asarray(array) if self._rank == root else None
        )
        return np.array(payload, copy=True)

    def barrier(self) -> None:
        self._collective(("barrier",), None)

    def gather(self, array: np.ndarray, root: int = 0) -> Optional[List[np.ndarray]]:
        self._check_root(root)
        payload, members = self._collective(("gather", root), np.asarray(array))
        if self._rank != root:
            return None
        return [payload[r] for r in sorted(payload)]


class ThreadedGroup:
    """Run an SPMD function across ``size`` rank threads.

    ``quorum`` is how many ranks the run needs; the default is all of
    them, so any rank that raises or stops arriving fails the run with
    :class:`QuorumLostError` (the rank's own exception as
    ``__cause__``).  Below that, a rank-body exception does not abort
    the group: the rank is marked failed, the collectives shrink to the
    survivors, and ``run()`` returns the survivors' results alongside a
    failure report.  A group is one launch.
    """

    def __init__(
        self,
        size: int,
        timeout_s: float = 30.0,
        quorum: Optional[int] = None,
        injector=None,
        join_timeout_s: Optional[float] = None,
        tracer=None,
        spares: int = 0,
        auto_respawn: bool = True,
    ):
        if size < 1:
            raise ValueError(f"group size must be >= 1, got {size}")
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if quorum is None:
            quorum = size
        if not 1 <= quorum <= size:
            raise ValueError(f"quorum must be in [1, {size}], got {quorum}")
        if join_timeout_s is not None and join_timeout_s <= 0:
            raise ValueError("join_timeout_s must be positive (or None to disable)")
        if spares < 0:
            raise ValueError("spares must be >= 0")
        self.size = size
        self.timeout_s = timeout_s
        self.quorum = quorum
        self.join_timeout_s = join_timeout_s
        self._st = _ElasticState(
            size,
            timeout_s,
            quorum,
            injector=injector,
            tracer=tracer,
            spares=spares,
            auto_respawn=auto_respawn,
        )
        self._live: List[Tuple[int, int, threading.Thread]] = []

    # -- introspection -------------------------------------------------------

    @property
    def active_ranks(self) -> List[int]:
        with self._st.cond:
            return sorted(self._st.active)

    @property
    def failures(self) -> Dict[int, BaseException]:
        with self._st.cond:
            return dict(self._st.failures)

    @property
    def evictions(self) -> List[Tuple[int, int]]:
        with self._st.cond:
            return list(self._st.evictions)

    @property
    def reductions(self) -> int:
        return self._st.reductions

    @property
    def bytes_reduced(self) -> int:
        return self._st.bytes_reduced

    @property
    def retransmits(self) -> int:
        return self._st.retransmits

    def stats(self) -> Dict[str, Any]:
        with self._st.cond:
            return {
                "reductions": self._st.reductions,
                "bytes_reduced": self._st.bytes_reduced,
                "retransmits": self._st.retransmits,
                "failed_ranks": sorted(self._st.failures),
                "evicted_ranks": sorted(r for _, r in self._st.evictions),
                "survivors": sorted(self._st.active),
                "rejoins": sorted(r for _, r in self._st.rejoins),
                "resyncs": self._st.resyncs,
                "resync_bytes": self._st.resync_bytes,
                "spares_used": self._st.spares_total - self._st.spares_left,
            }

    # -- execution -----------------------------------------------------------

    def run(
        self,
        fn: Callable[..., Any],
        args_per_rank: Optional[Sequence[tuple]] = None,
        joiner_fn: Optional[Callable[[ElasticComm], Any]] = None,
    ) -> List[Any]:
        """Execute ``fn(comm, *args)`` per rank; return per-rank results.

        Failed/evicted ranks yield ``None`` entries (their exceptions
        are in :attr:`failures`).  Raises :class:`QuorumLostError`,
        with the first failure as ``__cause__``, when survivors fall
        below the quorum.

        ``joiner_fn(comm)`` is the body run by readmitted ranks (its
        first act should be ``comm.await_admission()`` to claim the
        state resync); without one, admission requests are refused and
        the group is shrink-only.  A readmitted rank's result replaces
        its predecessor's ``None`` entry.
        """
        if args_per_rank is not None and len(args_per_rank) != self.size:
            raise ValueError(
                f"args_per_rank must have {self.size} entries, got {len(args_per_rank)}"
            )
        st = self._st
        results: List[Any] = [None] * self.size
        quorum_errors: List[QuorumLostError] = []

        def worker(rank: int, incarnation: int, body: Callable[[ElasticComm], Any]) -> None:
            comm = ElasticComm(rank, st, incarnation=incarnation)
            try:
                out = body(comm)
            except RankEvictedError:
                # The group already moved on without this rank; its
                # eviction is recorded in ``evictions``.
                pass
            except QuorumLostError as exc:
                quorum_errors.append(exc)
            except BaseException as exc:  # noqa: BLE001 - handled elastically
                st.mark_failed(rank, exc, incarnation=incarnation)
            else:
                with st.cond:
                    # A rank evicted while it was stalled outside any
                    # collective returns to a group that reported it gone.
                    if st.is_member_locked(rank, incarnation):
                        results[rank] = out
                        if st.returned_at is None:
                            st.returned_at = time.monotonic()

        def spawn(rank: int, incarnation: int, body: Callable[[ElasticComm], Any]) -> None:
            # Joiners are spawned by admit_locked with ``st.cond`` held, so
            # ``_join``'s snapshots (taken under it) never miss one.
            name = f"rank-{rank}.{incarnation}" if incarnation else f"rank-{rank}"
            t = threading.Thread(
                target=worker, args=(rank, incarnation, body), name=name, daemon=True
            )
            self._live.append((rank, incarnation, t))
            t.start()

        if joiner_fn is not None:
            st.spawn_joiner = lambda rank, incarnation: spawn(rank, incarnation, joiner_fn)
        self._live = []
        for r in range(self.size):
            args = args_per_rank[r] if args_per_rank is not None else ()
            spawn(r, 0, lambda comm, _args=args: fn(comm, *_args))
        try:
            self._join()
        finally:
            # No admissions after the run: a straggler must not spawn
            # a thread nobody will ever join.
            with st.cond:
                st.spawn_joiner = None
        with st.cond:
            survivors = sorted(st.active)
            first = next(iter(st.failures.values()), None)
            quorum_lost = st.quorum_lost
        if quorum_lost or quorum_errors:
            raise QuorumLostError(
                f"training group below quorum {self.quorum} "
                f"({len(survivors)} survivors)",
                survivors=survivors,
            ) from first
        return results

    def _join(self) -> None:
        """Join rank threads without capping healthy training time.

        While every rank is a member and none has returned, the join
        waits indefinitely — arriving at a collective is the heartbeat,
        so a live rank either makes progress or is evicted by its peers
        within ``timeout_s``.  A thread gets ``timeout_s`` to unwind
        once its rank has left the group (failed, evicted, or
        superseded by a newer incarnation), the group lost quorum, or
        the first rank returned: an SPMD body's ranks finish together,
        and a rank stalled where no collective can see it has no peer
        left to evict it.  After that the thread is abandoned as a
        daemon thread and, if its rank is still a member, the rank is
        evicted — no result depends on it.  ``join_timeout_s``, when
        set, caps the whole join and raises :class:`RankFailedError` on
        expiry.

        The thread list is re-snapshotted every iteration: joiner
        threads spawned by admissions appear dynamically.  A joiner is
        only ever spawned by a live rank thread, and the spawn happens
        before the spawner exits, so an empty pending set is final.
        """
        st = self._st
        poll_s = 0.05
        hard = (
            time.monotonic() + self.join_timeout_s
            if self.join_timeout_s is not None
            else None
        )
        grace: Dict[Tuple[int, int], float] = {}  # (rank, incarnation) -> abandon deadline
        done: set = set()
        abandoned: List[Tuple[int, int]] = []
        while True:
            with st.cond:
                snapshot = list(self._live)
            pending = [(r, i, t) for (r, i, t) in snapshot if (r, i) not in done]
            if not pending:
                break
            rank, inc, t = pending[0]
            now = time.monotonic()
            if hard is not None and now >= hard:
                alive = sorted({r for r, _, th in pending if th.is_alive()})
                raise RankFailedError(
                    f"rank(s) {alive} still running after "
                    f"{self.join_timeout_s}s join timeout",
                    failed_ranks=alive,
                )
            key = (rank, inc)
            if key not in grace:
                with st.cond:
                    if not st.is_member_locked(rank, inc) or st.quorum_lost:
                        grace[key] = now + self.timeout_s
                    elif st.returned_at is not None:
                        grace[key] = st.returned_at + self.timeout_s
            if key in grace and now >= grace[key]:
                if t.is_alive():
                    abandoned.append(key)
                    with st.cond:
                        if st.is_member_locked(rank, inc):
                            st.evict_locked(rank, self.timeout_s)
                            if not st.quorum_lost:
                                st.maybe_finish_locked()
                            st.cond.notify_all()
                done.add(key)
                continue
            t.join(poll_s)
            if not t.is_alive():
                done.add(key)
        if abandoned:
            _log.warning(
                "abandoned still-running thread(s) of (rank, incarnation) %s "
                "after %.1fs grace", abandoned, self.timeout_s,
            )
