"""The thread rank group: one OS thread per rank, collectives that
survive rank loss.

``ThreadedGroup(size).run(fn)`` launches ``size`` threads, each
executing ``fn(comm)`` with a rank-local :class:`ElasticComm`.  NumPy
releases the GIL inside BLAS kernels, so gradient computation on
different ranks genuinely overlaps — the in-process analogue of the
paper's one-MPI-rank-per-node layout.

The paper's training mode is *fully synchronous* (Algorithm 2): every
rank contributes to every allreduce, so one dead or hung rank stalls
all 8192.  That mode is this group at ``quorum == size`` (the default);
a lower quorum makes it elastic.  Who is a member, who may contribute,
when a collective completes, and whom to readmit are the rules of
:mod:`repro.comm.membership`, applied to a plain word array under one
``threading.Condition``.  What is this transport's own:

* waiting — a rank blocks on the condition; one that does not arrive
  within ``timeout_s`` is evicted by the ranks that did (arriving is the
  heartbeat), and a rank still running ``timeout_s`` after the first
  rank returned is evicted by the launching thread (:meth:`ThreadedGroup._join`);
* the wire — contributions sit in a slot dict; with a
  :class:`~repro.faults.FaultInjector` that corrupts messages each
  carries a CRC32, and a corrupted copy is replaced by the sender's
  source buffer (``retransmits``);
* grow-back — an admitted rank's resync payload is a deep-copied ticket
  its new joiner thread claims.
"""

from __future__ import annotations

import threading
import time
import zlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.errors import (
    MessageCorruptError,
    QuorumLostError,
    RankEvictedError,
    RankFailedError,
)
from repro.comm.membership import MemberComm, Membership, resync_crc
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


class _ElasticState:
    """Membership words, pending collective, and result shared by all ranks."""

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
        self.timeout_s = timeout_s
        self.injector = injector
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.checksums = injector is not None and injector.corrupts_messages
        self.cond = threading.Condition()
        self.m = Membership(size).reset(quorum, spares, auto_respawn)
        self.slots: Dict[int, _Contribution] = {}
        self.pending_op: Optional[Tuple] = None
        self.generation = 0
        # (generation, payload, error, members) of the last finished
        # collective; every contributor reads it before its next
        # collective can overwrite it.
        self.result: Tuple = (-1, None, None, frozenset())
        self.failures: Dict[int, BaseException] = {}
        self.evictions: List[Tuple[int, int]] = []  # (generation, rank)
        self.retransmits = 0
        #: rank -> the admitted incarnation's resync payload, until claimed.
        self.tickets: Dict[int, Dict[str, np.ndarray]] = {}
        #: installed by the group before run(); called with ``cond``
        #: held, must only spawn the joiner thread (never block).
        self.spawn_joiner: Optional[Callable[[int, int], None]] = None
        #: when the first rank returned from its body; the rest then get
        #: ``timeout_s`` to follow (see ``ThreadedGroup._join``).
        self.returned_at: Optional[float] = None

    # All methods below require ``self.cond`` to be held by the caller.

    def _payloads_locked(self, ranks) -> Dict[int, Optional[np.ndarray]]:
        """Checksum-validated contributions, retransmitting corrupt ones."""
        out: Dict[int, Optional[np.ndarray]] = {}
        for r in ranks:
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

    def complete_if_ready_locked(self) -> None:
        """Complete the pending collective once every participant arrived."""
        parts = self.m.participants(self.generation)
        if (
            self.pending_op is None
            or not parts
            or not set(self.slots) >= set(parts)
            or not self.m.check_quorum()
        ):
            return
        kind, arg = self.pending_op
        payload: Any = None
        try:
            payload, error = self.m.completed(kind, arg, self._payloads_locked(parts))
        except BaseException as exc:  # noqa: BLE001 - delivered to every rank
            error = exc
        self.result = (self.generation, payload, error, frozenset(parts))
        self.generation += 1
        self.slots.clear()
        self.pending_op = None
        self.cond.notify_all()

    def _fail_locked(self, rank: int, incarnation: Optional[int], evicted: bool, **instant) -> bool:
        """Membership's fail/evict, then this transport's cleanup and trace."""
        lost = self.m.quorum_lost
        if not self.m.fail(rank, incarnation, evicted=evicted):
            return False
        self.slots.pop(rank, None)
        self.tickets.pop(rank, None)
        if self.tracer.enabled:
            self.tracer.instant(
                "eviction" if evicted else "rank-failed", cat="comm", track=rank, **instant
            )
            if self.m.quorum_lost and not lost:
                self.tracer.instant(
                    "quorum-lost",
                    cat="comm",
                    track="driver",
                    survivors=len(self.m.survivors()),
                    quorum=self.m.quorum,
                )
        return True

    def mark_failed(
        self, rank: int, exc: BaseException, incarnation: Optional[int] = None
    ) -> None:
        """A rank died: shrink the group and unblock any waiters.

        ``incarnation`` (when given) fences stale threads: a leftover
        thread of an evicted rank that dies *after* the rank was
        readmitted must not take down its successor.
        """
        with self.cond:
            if not self._fail_locked(rank, incarnation, False, cause=type(exc).__name__):
                _log.warning(
                    "rank %d (incarnation %s) died (%r) after leaving the group; ignored",
                    rank, incarnation, exc,
                )
                return
            self.failures[rank] = exc
            _log.warning(
                "rank %d failed (%r); %d survivors", rank, exc, len(self.m.survivors())
            )
            self.complete_if_ready_locked()
            self.cond.notify_all()

    def evict_locked(self, rank: int, waited_s: float) -> None:
        if not self._fail_locked(rank, None, True, collective=self.generation):
            return
        self.evictions.append((self.generation, rank))
        _log.warning(
            "rank %d evicted after %.2fs without a heartbeat (collective %d); "
            "%d survivors", rank, waited_s, self.generation, len(self.m.survivors()),
        )


class ElasticComm(MemberComm):
    """Per-rank handle to a :class:`ThreadedGroup`."""

    def __init__(self, rank: int, state: _ElasticState, incarnation: int = 0):
        super().__init__(rank, state.m, incarnation, guard=state.cond)
        self._st = state

    def admit(self, rank: int, payload: Dict[str, np.ndarray], spare: bool = False) -> bool:
        """Admit ``rank`` with a full state resync, spawning its thread.

        Called by the donor *before* it contributes to the current
        step's collective, so that collective cannot finish without the
        joiner — its first contribution lands in the very step it was
        admitted at.  Refused without a joiner body (see
        :meth:`ThreadedGroup.run`).
        """
        st = self._st
        with st.cond:
            if st.spawn_joiner is None:
                return False
            nbytes = sum(int(np.asarray(v).nbytes) for v in payload.values())

            def stage(incarnation: int) -> int:
                ticket = st.tickets[rank] = {k: np.array(v, copy=True) for k, v in payload.items()}
                return resync_crc(ticket)

            incarnation = st.m.admit(rank, st.generation, spare, nbytes, stage)
            if not incarnation:
                return False
            if st.tracer.enabled:
                st.tracer.instant(
                    "rejoin-admitted",
                    cat="comm",
                    track=rank,
                    collective=st.generation,
                    spare=spare,
                    incarnation=incarnation,
                )
                st.tracer.instant("resync", cat="comm", track=rank, nbytes=nbytes)
            _log.info(
                "rank %d admitted (%s, incarnation %d) at collective %d; resync %d bytes",
                rank, "spare" if spare else "recovered", incarnation, st.generation, nbytes,
            )
            st.spawn_joiner(rank, incarnation)
            st.cond.notify_all()
            return True

    def await_admission(self) -> Dict[str, np.ndarray]:
        """Claim this joiner's CRC-verified resync payload.

        Called once by the joiner thread before its first collective.
        Raises :class:`QuorumLostError` if the group collapsed while
        the resync was in flight, :class:`RankEvictedError` if this
        incarnation's admission is no longer pending, and
        :class:`MessageCorruptError` if the payload fails its CRC (the
        joiner then fails and the group simply stays shrunk).
        """
        st = self._st
        with st.cond:
            crc = st.m.claim(self._rank, self._incarnation)
            payload = st.tickets.pop(self._rank)
        if resync_crc(payload) != crc:
            raise MessageCorruptError(
                f"resync payload for rank {self._rank} failed CRC verification"
            )
        return payload

    # -- the one collective engine ----------------------------------------

    def _collective(self, kind: str, arg, array: Optional[np.ndarray]):
        st = self._st
        if not st.tracer.enabled:
            payload, members = self._collective_inner((kind, arg), array)
        else:
            nbytes = 0 if array is None else int(np.asarray(array).nbytes)
            with st.tracer.span(kind, cat="comm", track=self._rank, nbytes=nbytes):
                payload, members = self._collective_inner((kind, arg), array)
        # Every rank reads the one result: each takes its own copy.
        return (None if payload is None else np.array(payload, copy=True)), members

    def _collective_inner(self, op: Tuple, array: Optional[np.ndarray]):
        st = self._st
        m = st.m
        with st.cond:
            if m.quorum_lost:
                raise m.quorum_error()
            if not m.is_current(self._rank, self._incarnation):
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
            st.complete_if_ready_locked()
            deadline = time.monotonic() + st.timeout_s
            while st.generation == gen and not m.quorum_lost:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # Heartbeat expired: the ranks that never arrived are
                    # presumed dead — evict them and continue without them.
                    for r in m.participants(gen):
                        if r not in st.slots:
                            st.evict_locked(r, st.timeout_s)
                    st.complete_if_ready_locked()
                    st.cond.notify_all()
                    break
                st.cond.wait(remaining)
            if st.generation == gen and m.quorum_lost:
                # Nothing was published for our collective before quorum
                # was lost.  (If the generation DID advance, publication
                # happened strictly before the loss — once quorum_lost
                # is set no collective can finish — so consume the
                # result and let the next collective raise: whether this
                # thread woke before or after the flag was set must not
                # change the outcome.)
                raise m.quorum_error()
            rgen, payload, error, members = st.result
            if rgen != gen:  # pragma: no cover - protocol invariant
                raise RuntimeError(
                    f"collective protocol error: expected generation {gen}, "
                    f"got {rgen}"
                )
            if error is not None:
                raise error
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
            return self._st.m.survivors()

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
        return self.stats()["reductions"]

    @property
    def bytes_reduced(self) -> int:
        return self.stats()["bytes_reduced"]

    @property
    def retransmits(self) -> int:
        return self._st.retransmits

    def stats(self) -> Dict[str, Any]:
        with self._st.cond:
            return {
                **self._st.m.stats(),
                "retransmits": self._st.retransmits,
                "failed_ranks": sorted(self._st.failures),
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
        quorum_errors: List[BaseException] = []

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
                    if st.m.is_current(rank, incarnation):
                        results[rank] = out
                        st.m.done(rank, incarnation)
                        if st.returned_at is None:
                            st.returned_at = time.monotonic()
                        st.complete_if_ready_locked()

        def spawn(rank: int, incarnation: int, body: Callable[[ElasticComm], Any]) -> None:
            # Joiners are spawned by ``admit`` with ``st.cond`` held, so
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
            survivors = st.m.survivors()
            first = next(iter(st.failures.values()), None)
            quorum_lost = st.m.quorum_lost
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
        once its rank has left the group (finished, failed, evicted, or
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
                    if not st.m.is_current(rank, inc) or st.m.quorum_lost:
                        grace[key] = now + self.timeout_s
                    elif st.returned_at is not None:
                        grace[key] = st.returned_at + self.timeout_s
            if key in grace and now >= grace[key]:
                if t.is_alive():
                    abandoned.append(key)
                    with st.cond:
                        if st.m.is_current(rank, inc):
                            st.evict_locked(rank, self.timeout_s)
                            st.complete_if_ready_locked()
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
