"""Real-process rank group over crash-safe shared memory.

The thread group proves the *semantics* of elastic synchronous
SGD; this module proves them against the failure modes the paper's
8192-node runs actually face: a rank is an **OS process** that can be
SIGKILLed mid-step, leak its buffers, or orphan its children.  The
pieces:

* a **shared-memory collective arena** — one control segment of int64
  protocol words plus one data segment of per-rank payload slots —
  through which spawned rank processes run the same rank-ordered,
  bitwise-deterministic collectives as every other backend
  (:func:`~repro.comm.membership.complete` computes each result);
* :class:`ProcessComm`, the per-worker :class:`Communicator`: the
  membership rules of :mod:`repro.comm.membership` over the words in
  the control segment, on lock-free polling — a SIGKILLed peer can
  never deadlock a survivor, because no rank ever blocks on a lock a
  corpse might hold;
* :class:`RankSupervisor`, the parent-side monitor: exit-code/signal
  crash classification onto the typed :class:`CommError` hierarchy,
  heartbeat liveness with SIGTERM-then-SIGKILL escalation, joiner
  spawning for step-boundary rejoins, and guaranteed teardown;
* a **segment registry** (:func:`register_segment` /
  :func:`sweep_stale_segments`): every created segment is recorded in
  a per-owner JSON file, so even a supervisor that dies by SIGKILL
  leaves enough on disk for the *next* run to reap its ``/dev/shm``
  debris.

Crash-safety of the protocol rests on publication ordering, not mutual
exclusion: a writer fills its payload slot, then stores the generation
number into its ``ARRIVE`` word last; the reducer publishes result
bytes and metadata, then stores ``RESULT_GEN`` last.  A rank killed
mid-write is invisible (its ``ARRIVE``/``RESULT_GEN`` store never
happened) and its half-written buffer is never consumed.  The result
slot is safely single-buffered because a rank can only overwrite it
for generation ``g+1`` after every active rank arrived at ``g+1`` —
which implies they all consumed ``g``.  (Word-aligned int64 loads and
stores are atomic on the platforms this repo targets; the ordering
argument assumes x86-TSO-like total store order.)
"""

from __future__ import annotations

import json
import os
import signal
import time
from multiprocessing import shared_memory
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.errors import (
    MessageCorruptError,
    ProcessCrashError,
    RankEvictedError,
    RankFailedError,
)
from repro.comm.membership import DEAD, DONE, MemberComm, Membership, resync_crc, root_died
from repro.utils.logging import get_logger
from repro.utils.procs import pid_alive

__all__ = [
    "ShmLayout",
    "ProcessComm",
    "RankSupervisor",
    "register_segment",
    "unregister_segment",
    "sweep_stale_segments",
    "attach_segment",
    "create_segment",
    "EXIT_OK",
    "EXIT_CRASH",
    "EXIT_QUORUM_LOST",
    "EXIT_EVICTED",
    "EXIT_INTERRUPTED",
    "MAX_WORLD",
]

_log = get_logger("comm.process")

# Worker exit codes: the supervisor's crash classifier keys on these.
EXIT_OK = 0
EXIT_CRASH = 1
EXIT_QUORUM_LOST = 3
EXIT_EVICTED = 4
EXIT_INTERRUPTED = 5

#: A collective's result membership is a bitmask in one int64 word.
MAX_WORLD = 63

# Global control words ahead of the membership words: the result of the
# last collective.
_G_MAGIC = 0
_G_WORLD = 1
_G_RESULT_GEN = 2
_G_RESULT_MEMBERS = 3
_G_ERROR_ROOT = 4  # the dead bcast root, -1 for none
_NG = 8  # padded

# Per-rank control arrays after the membership words, in layout order.
_FIELDS = (
    "arrive",       # generation of the rank's latest contribution (-1 = none)
    "heartbeat",    # liveness counter, bumped in every poll iteration
    "begun",        # last global step whose top this rank reached (-1)
)

_MAGIC = 0x5245_5052  # "REPR"

#: dtypes a payload may carry across the wire (closed, ordered table).
_DTYPES = (
    np.dtype(np.float64),
    np.dtype(np.float32),
    np.dtype(np.int64),
    np.dtype(np.int32),
    np.dtype(np.uint8),
    np.dtype(np.bool_),
)

_MAX_NDIM = 8
_HDR_WORDS = 2 + _MAX_NDIM  # dtype_code, ndim, shape[8]
_HDR_BYTES = _HDR_WORDS * 8


def _dtype_code(dtype: np.dtype) -> int:
    for i, d in enumerate(_DTYPES):
        if d == dtype:
            return i
    raise TypeError(f"unsupported payload dtype {dtype} for the process backend")


# ---------------------------------------------------------------------------
# Segment registry: crash-proof shared-memory accounting
# ---------------------------------------------------------------------------


def _registry_dir() -> Path:
    root = os.environ.get("REPRO_SHM_REGISTRY")
    if root:
        return Path(root)
    import tempfile

    return Path(tempfile.gettempdir()) / "repro-shm-registry"


def register_segment(name: str) -> Path:
    """Record that this process owns shared-memory segment ``name``.

    The record outlives the process — that is the point.  If the owner
    dies without unlinking (SIGKILL takes no prisoners), the segment's
    name and owner pid survive on disk and the next run's
    :func:`sweep_stale_segments` reclaims it.
    """
    directory = _registry_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    path.write_text(json.dumps({"name": name, "pid": os.getpid()}))
    return path


def unregister_segment(name: str) -> None:
    try:
        (_registry_dir() / f"{name}.json").unlink()
    except OSError:
        pass


def sweep_stale_segments() -> List[str]:
    """Unlink segments whose registered owner process is dead.

    Returns the names reclaimed.  Segments of live owners are left
    untouched, as are records we cannot parse (another tool's files).
    """
    directory = _registry_dir()
    if not directory.is_dir():
        return []
    reclaimed: List[str] = []
    for record in sorted(directory.glob("*.json")):
        try:
            doc = json.loads(record.read_text())
            name, pid = doc["name"], int(doc["pid"])
        except (OSError, ValueError, KeyError, TypeError):
            continue
        if pid_alive(pid):
            continue
        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            pass  # the owner did unlink before dying
        else:
            seg.close()
            seg.unlink()
            _log.warning(
                "reclaimed orphaned shared-memory segment %s (dead owner pid %d)",
                name, pid,
            )
            reclaimed.append(name)
        try:
            record.unlink()
        except OSError:
            pass
    return reclaimed


def create_segment(size: int) -> shared_memory.SharedMemory:
    """Create an anonymous-named segment and register it to this pid."""
    seg = shared_memory.SharedMemory(create=True, size=size)
    register_segment(seg.name)
    return seg


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting its lifetime.

    Workers attach; only the supervisor owns.  Python's per-process
    ``resource_tracker`` would otherwise unlink the segment when *any*
    attaching process exits, turning one worker death into group-wide
    buffer loss — exactly the failure this backend exists to survive.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass  # Python < 3.13: no track parameter
    # Pre-3.13 workaround: attach registers with the resource tracker
    # exactly like create does, and since sibling workers share one
    # tracker process, N attach/unregister pairs for the same name
    # corrupt its refcount-free cache.  Suppress registration for the
    # duration of the attach instead.
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _skip(name_, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            original(name_, rtype)

    resource_tracker.register = _skip
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def destroy_segment(seg: shared_memory.SharedMemory) -> None:
    """Close, unlink, and unregister an owned segment (idempotent)."""
    name = seg.name
    try:
        seg.close()
    except OSError:  # pragma: no cover - already closed
        pass
    try:
        seg.unlink()
    except OSError:
        pass
    unregister_segment(name)


# ---------------------------------------------------------------------------
# Layout
# ---------------------------------------------------------------------------


class ShmLayout:
    """Geometry of the two segments for a ``world``-rank group.

    The control segment holds the result words, the group's
    :class:`~repro.comm.membership.Membership` words, then this
    transport's per-rank words.  The data segment holds ``world + 1``
    payload slots (one per rank plus the result slot), each a small
    shape/dtype header followed by ``payload_bytes`` of raw tensor bytes.
    """

    def __init__(self, world: int, payload_bytes: int):
        if not 1 <= world <= MAX_WORLD:
            raise ValueError(f"world must be in [1, {MAX_WORLD}], got {world}")
        self.world = world
        self.payload_bytes = int(payload_bytes)
        self.slot_bytes = _HDR_BYTES + self.payload_bytes
        self._fields_at = _NG + Membership.n_words(world)
        self.ctrl_words = self._fields_at + len(_FIELDS) * world
        self.ctrl_bytes = self.ctrl_words * 8
        self.data_bytes = (world + 1) * self.slot_bytes

    def ctrl_view(self, buf) -> np.ndarray:
        return np.ndarray((self.ctrl_words,), dtype=np.int64, buffer=buf)

    def membership(self, ctrl: np.ndarray) -> Membership:
        return Membership(self.world, ctrl[_NG : self._fields_at])

    def field(self, ctrl: np.ndarray, name: str) -> np.ndarray:
        lo = self._fields_at + _FIELDS.index(name) * self.world
        return ctrl[lo : lo + self.world]

    def init_ctrl(
        self, ctrl: np.ndarray, quorum: int, spares: int = 0, auto_respawn: bool = True
    ) -> None:
        ctrl[:] = 0
        ctrl[_G_MAGIC] = _MAGIC
        ctrl[_G_WORLD] = self.world
        ctrl[_G_RESULT_GEN] = -1
        self.membership(ctrl).reset(quorum, spares, auto_respawn)
        self.field(ctrl, "arrive")[:] = -1
        self.field(ctrl, "begun")[:] = -1

    # -- data slots ---------------------------------------------------------

    def _slot(self, data_buf, index: int) -> memoryview:
        lo = index * self.slot_bytes
        return memoryview(data_buf)[lo : lo + self.slot_bytes]

    def write_slot(self, data_buf, index: int, array: Optional[np.ndarray]) -> int:
        """Serialize ``array`` into a slot; returns its payload nbytes.

        The caller publishes the slot afterwards (``ARRIVE`` or
        ``RESULT_GEN`` store) — this function only moves bytes.
        """
        slot = self._slot(data_buf, index)
        hdr = np.ndarray((_HDR_WORDS,), dtype=np.int64, buffer=slot)
        if array is None:
            hdr[0] = -1
            return 0
        arr = np.ascontiguousarray(array)
        code = _dtype_code(arr.dtype)
        if arr.ndim > _MAX_NDIM:
            raise ValueError(f"payload ndim {arr.ndim} exceeds {_MAX_NDIM}")
        if arr.nbytes > self.payload_bytes:
            raise ValueError(
                f"payload of {arr.nbytes} bytes exceeds the {self.payload_bytes}-byte slot"
            )
        hdr[1] = arr.ndim
        hdr[2 : 2 + arr.ndim] = arr.shape
        slot[_HDR_BYTES : _HDR_BYTES + arr.nbytes] = arr.tobytes()
        hdr[0] = code
        return int(arr.nbytes)

    def read_slot(self, data_buf, index: int) -> Optional[np.ndarray]:
        """Deserialize a published slot into a fresh (owned) array."""
        slot = self._slot(data_buf, index)
        hdr = np.ndarray((_HDR_WORDS,), dtype=np.int64, buffer=slot)
        code = int(hdr[0])
        if code < 0:
            return None
        dtype = _DTYPES[code]
        ndim = int(hdr[1])
        shape = tuple(int(s) for s in hdr[2 : 2 + ndim])
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if ndim else dtype.itemsize
        raw = bytes(slot[_HDR_BYTES : _HDR_BYTES + nbytes])
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


# ---------------------------------------------------------------------------
# The per-worker communicator
# ---------------------------------------------------------------------------


class ProcessComm(MemberComm):
    """One worker process's handle to the shared-memory group.

    The same rank API as :class:`~repro.comm.elastic.ElasticComm`, over
    the membership words in the control segment, so the same training
    loop runs unchanged on real processes.  What is this transport's own
    is the polling, the ``arrive`` / ``heartbeat`` / ``begun`` words, the
    payload slots and the resync files: CRC-stamped files under
    ``run_dir`` rather than in-memory tickets (they exceed the collective
    slot and must survive the donor).
    """

    def __init__(
        self,
        rank: int,
        layout: ShmLayout,
        ctrl: np.ndarray,
        data_buf,
        timeout_s: float,
        run_dir,
        incarnation: int = 0,
        poll_s: float = 0.0005,
    ):
        super().__init__(rank, layout.membership(ctrl), incarnation)
        self.layout = layout
        self.ctrl = ctrl
        self.data = data_buf
        self.timeout_s = timeout_s
        self.run_dir = Path(run_dir)
        self.poll_s = poll_s
        self._arrive = layout.field(ctrl, "arrive")
        self._beat = layout.field(ctrl, "heartbeat")
        self._begun = layout.field(ctrl, "begun")
        self._gen = int(self._m.admit_gen[rank]) if incarnation > 0 else 0
        self._wait_start: Optional[float] = None
        self._parent = os.getppid()

    # -- liveness / bookkeeping -------------------------------------------

    def note_step(self, global_step: int) -> None:
        """Record the top-of-step watermark the restart filter reads."""
        self._begun[self._rank] = global_step
        self._beat[self._rank] += 1

    def mark_done(self) -> None:
        """This rank finished its loop; collectives stop waiting for it."""
        self._m.done(self._rank, self._incarnation)

    def mark_dead(self) -> None:
        """Best-effort self-report on the way down (incarnation-fenced)."""
        self._m.fail(self._rank, self._incarnation)

    def _check_alive(self) -> None:
        if self._m.quorum_lost:
            raise self._m.quorum_error()
        if not self._m.is_current(self._rank, self._incarnation):
            raise RankEvictedError(self._rank)
        if os.getppid() != self._parent:
            # The supervisor died; we are an orphan.  Exit rather than
            # spin forever against a group nobody is watching.
            raise RankFailedError(
                f"rank {self._rank} orphaned: supervisor process is gone"
            )

    # -- the collective engine --------------------------------------------

    def _collective(self, kind: str, arg, array: Optional[np.ndarray]):
        me = self._rank
        gen = self._gen
        self._check_alive()
        # Contribute: payload bytes first, ARRIVE store last (the
        # publication fence — a SIGKILL anywhere in between leaves this
        # rank unArrived and its half-written slot unread forever).
        self.layout.write_slot(self.data, me, array)
        self._arrive[me] = gen
        self._beat[me] += 1
        self._wait_start = None
        while True:
            if self.ctrl[_G_RESULT_GEN] >= gen:
                return self._consume(gen)
            self._check_alive()
            participants = self._m.participants(gen)
            if participants and me == participants[0]:
                done = self._reduce_if_ready(kind, arg, gen, participants)
                if done:
                    return self._consume(gen)
            self._beat[me] += 1
            time.sleep(self.poll_s)

    def _reduce_if_ready(self, kind: str, arg, gen: int, participants: List[int]) -> bool:
        """Reducer duties for the lowest participant (with takeover).

        Waits for every participant's ``ARRIVE`` to reach ``gen``;
        after ``timeout_s`` the missing ranks are presumed dead and
        evicted (arriving at a collective is the heartbeat, exactly as
        in the thread group).  Returns True once the result
        is published.
        """
        missing = [r for r in participants if self._arrive[r] != gen]
        if missing:
            now = time.monotonic()
            if self._wait_start is None:
                self._wait_start = now
            if now - self._wait_start > self.timeout_s:
                for r in missing:
                    if self._m.fail(r, evicted=True):
                        self._arrive[r] = -1
                        _log.warning(
                            "rank %d evicted after %.1fs without arriving; %d survivors",
                            r, self.timeout_s, len(self._m.survivors()),
                        )
                self._wait_start = None
                if self._m.quorum_lost:
                    raise self._m.quorum_error()
            return False
        # Without this check a survivor could complete a collective solo
        # in the window between the supervisor marking the last corpse
        # dead and the quorum flag landing — and then train (and
        # checkpoint!) alone past the point the restart resumes from.
        if not self._m.check_quorum():
            raise self._m.quorum_error()
        contributions = {r: self.layout.read_slot(self.data, r) for r in participants}
        result, error = self._m.completed(kind, arg, contributions)
        # Publish: result bytes, then metadata, then RESULT_GEN last.
        self.layout.write_slot(self.data, self.size, result)
        self.ctrl[_G_RESULT_MEMBERS] = sum(1 << r for r in participants)
        self.ctrl[_G_ERROR_ROOT] = -1 if error is None else error.failed_ranks[0]
        self.ctrl[_G_RESULT_GEN] = gen
        return True

    def _consume(self, gen: int):
        if self.ctrl[_G_RESULT_GEN] != gen:
            # The group can only have advanced past our generation by
            # removing us from the membership — we were evicted while
            # waiting and the result slot has been recycled.
            raise RankEvictedError(self._rank)
        root = int(self.ctrl[_G_ERROR_ROOT])
        mask = int(self.ctrl[_G_RESULT_MEMBERS])
        members = frozenset(r for r in range(self.size) if mask >> r & 1)
        payload = self.layout.read_slot(self.data, self.size)
        self._gen = gen + 1
        if root >= 0:
            raise root_died(root)
        return payload, members

    # -- grow-back protocol -------------------------------------------------

    def resync_path(self, rank: int, incarnation: int) -> Path:
        return self.run_dir / f"resync-r{rank}-i{incarnation}.npz"

    def admit(self, rank: int, payload: Dict[str, np.ndarray], spare: bool = False) -> bool:
        """Admit a dead rank: write its CRC-stamped resync file, then the
        membership words that make it a participant of this generation.

        The supervisor spawns the joiner once the pending-join word is
        stored, last — a donor killed anywhere before leaves a dead rank
        dead, never a live rank with half a resync.
        """
        arrays = {k: np.asarray(v) for k, v in payload.items()}
        nbytes = sum(int(a.nbytes) for a in arrays.values())

        def stage(incarnation: int) -> int:
            np.savez(self.resync_path(rank, incarnation), **arrays)
            self._arrive[rank] = -1
            return resync_crc(arrays)

        incarnation = self._m.admit(rank, self._gen, spare, nbytes, stage)
        if incarnation:
            _log.info(
                "rank %d admitted (%s, incarnation %d) at generation %d; resync %d bytes",
                rank, "spare" if spare else "recovered", incarnation, self._gen, nbytes,
            )
        return bool(incarnation)

    def await_admission(self) -> Dict[str, np.ndarray]:
        """Claim this joiner's CRC-verified resync payload (joiner only)."""
        crc = self._m.claim(self._rank, self._incarnation)
        with np.load(self.resync_path(self._rank, self._incarnation)) as data:
            payload = {k: np.array(data[k]) for k in data.files}
        if resync_crc(payload) != crc:
            raise MessageCorruptError(
                f"resync payload for rank {self._rank} failed CRC verification"
            )
        return payload


# ---------------------------------------------------------------------------
# Parent-side supervision
# ---------------------------------------------------------------------------


class _WorkerRecord:
    __slots__ = (
        "proc", "incarnation", "evictions", "last_beat", "beat_seen_at", "term_at",
        "out_since", "reaped",
    )

    def __init__(self, proc, incarnation: int, evictions: int):
        self.proc = proc
        self.incarnation = incarnation
        #: the rank's eviction count when this worker was spawned: a
        #: higher count means this incarnation was evicted
        self.evictions = evictions
        self.last_beat = -1
        self.beat_seen_at = time.monotonic()
        self.term_at: Optional[float] = None
        #: when this worker was first seen running on after its rank was
        #: evicted or reported its own death (see :meth:`RankSupervisor.poll`).
        self.out_since: Optional[float] = None
        self.reaped = False


class RankSupervisor:
    """The parent's view of the worker fleet.

    Owns process lifecycle, never the numerics: detects deaths by
    ``exitcode`` (negative → signal → :class:`ProcessCrashError`),
    detects hangs by heartbeat stall (SIGTERM, then SIGKILL after
    ``term_grace_s``), fails or evicts the dead in the group's
    membership so the survivors' collectives shrink past them, spawns a
    joiner process for every admission a donor files, and tears
    everything down — escalating politely — in :meth:`shutdown`.
    """

    def __init__(
        self,
        layout: ShmLayout,
        ctrl: np.ndarray,
        spawn,
        timeout_s: float,
        heartbeat_timeout_s: Optional[float] = None,
        term_grace_s: float = 5.0,
    ):
        self.layout = layout
        self.ctrl = ctrl
        self.spawn = spawn  # (rank, incarnation) -> multiprocessing.Process
        self.timeout_s = timeout_s
        self.heartbeat_timeout_s = (
            heartbeat_timeout_s if heartbeat_timeout_s is not None else 4 * timeout_s
        )
        self.term_grace_s = term_grace_s
        self.workers: Dict[int, _WorkerRecord] = {}
        self.failures: Dict[int, BaseException] = {}
        self.exit_codes: Dict[Tuple[int, int], int] = {}
        self.kill_counts: Dict[str, int] = {}
        self.m = layout.membership(ctrl)
        self._beat = layout.field(ctrl, "heartbeat")

    # -- lifecycle ----------------------------------------------------------

    def launch(self, ranks: Sequence[int]) -> None:
        for r in ranks:
            self._spawn(r, 0)

    def _spawn(self, rank: int, incarnation: int) -> None:
        proc = self.spawn(rank, incarnation)
        self.workers[rank] = _WorkerRecord(proc, incarnation, int(self.m.evictions[rank]))

    def live_count(self) -> int:
        return sum(1 for w in self.workers.values() if w.proc.exitcode is None)

    def finished(self) -> bool:
        if self.live_count() > 0:
            return False
        # An admission filed by a donor just before it finished still
        # deserves a spawn — unless the group is already lost.
        if not self.m.quorum_lost:
            for r in range(self.layout.world):
                w = self.workers.get(r)
                spawned = w.incarnation if w is not None else 0
                if self.m.join[r] > spawned:
                    return False
        return True

    def poll(self) -> None:
        """One supervision pass: reap, classify, evict hangs, spawn joins."""
        now = time.monotonic()
        m = self.m
        for rank, w in list(self.workers.items()):
            code = w.proc.exitcode
            if code is not None:
                if (rank, w.incarnation) not in self.exit_codes:
                    self.exit_codes[(rank, w.incarnation)] = code
                    # A worker this supervisor terminated is on record
                    # for why, not for the signal it died of.
                    if not w.reaped:
                        self._classify_exit(rank, w, code)
                continue
            beat = int(self._beat[rank])
            if beat != w.last_beat:
                w.last_beat = beat
                w.beat_seen_at = now
            elif (
                w.last_beat >= 0
                and m.is_current(rank, w.incarnation)
                and now - w.beat_seen_at > self.heartbeat_timeout_s
            ):
                self._evict_hung(rank, w, now)
            evicted = m.incarnation[rank] != w.incarnation or m.evictions[rank] > w.evictions
            if w.term_at is None and (evicted or m.status[rank] == DEAD):
                # Out of the group and still running, a stall no heartbeat
                # check above looks at any more.  Evicted by its peers: on
                # record already, so it has ``timeout_s`` to notice.  Dead
                # by its own report: on its way out, so it has the stall
                # bound, and its exit says why it died.
                if w.out_since is None:
                    w.out_since = now
                elif now - w.out_since > (
                    self.timeout_s if evicted else self.heartbeat_timeout_s
                ):
                    _log.warning(
                        "rank %d still running %.1fs after its %s; SIGTERM",
                        rank, now - w.out_since, "eviction" if evicted else "death",
                    )
                    w.proc.terminate()
                    w.term_at = now
                    w.reaped = evicted
            if w.term_at is not None and now - w.term_at > self.term_grace_s:
                _log.warning("rank %d ignored SIGTERM; escalating to SIGKILL", rank)
                w.proc.kill()
                w.term_at = None
        self._spawn_joiners()

    def _classify_exit(self, rank: int, w: _WorkerRecord, code: int) -> None:
        if code == EXIT_OK and self.m.status[rank] == DONE:
            return
        if code < 0:
            name = signal.Signals(-code).name if -code in signal.Signals._value2member_map_ else str(-code)
            exc: BaseException = ProcessCrashError(rank, code, signal_name=name)
            self.kill_counts[name] = self.kill_counts.get(name, 0) + 1
        elif code == EXIT_EVICTED:
            # An orderly eviction exit; the eviction itself is already
            # recorded in the control segment.
            return
        elif code == EXIT_QUORUM_LOST:
            return
        elif code == EXIT_INTERRUPTED:
            exc = RankFailedError(f"rank {rank} interrupted", failed_ranks=[rank])
        else:
            exc = ProcessCrashError(rank, code)
        self.failures[rank] = exc
        if self.m.fail(rank, w.incarnation):
            _log.warning("%s; %d survivors", exc, len(self.m.survivors()))

    def _evict_hung(self, rank: int, w: _WorkerRecord, now: float) -> None:
        _log.warning(
            "rank %d heartbeat stalled for %.1fs; evicting (SIGTERM, then SIGKILL)",
            rank, now - w.beat_seen_at,
        )
        self.m.fail(rank, w.incarnation, evicted=True)
        self.failures[rank] = ProcessCrashError(rank, None, signal_name="heartbeat-stall")
        w.proc.terminate()
        w.term_at = now
        w.reaped = True

    def _spawn_joiners(self) -> None:
        if self.m.quorum_lost:
            return
        for r in range(self.layout.world):
            req = int(self.m.join[r])
            if req == 0:
                continue
            w = self.workers.get(r)
            if w is not None and w.incarnation >= req:
                continue
            if w is not None and w.proc.exitcode is None:
                continue  # predecessor still unwinding; spawn next pass
            _log.info("spawning joiner process for rank %d (incarnation %d)", r, req)
            self._spawn(r, req)

    # -- teardown -----------------------------------------------------------

    def shutdown(self, deadline_s: float = 10.0) -> None:
        """Graceful stop: SIGTERM everyone, wait, SIGKILL stragglers."""
        live = [w for w in self.workers.values() if w.proc.exitcode is None]
        for w in live:
            try:
                w.proc.terminate()
            except Exception:  # pragma: no cover - already gone
                pass
        deadline = time.monotonic() + deadline_s
        for w in live:
            w.proc.join(max(0.0, deadline - time.monotonic()))
        for w in live:
            if w.proc.exitcode is None:
                _log.warning("worker pid %s survived SIGTERM; SIGKILL", w.proc.pid)
                w.proc.kill()
                w.proc.join(5.0)

    # -- reporting ----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            **self.m.stats(),
            "failed_ranks": sorted(self.failures),
            "exit_codes": {f"{r}.{i}": c for (r, i), c in sorted(self.exit_codes.items())},
            "signal_kills": dict(self.kill_counts),
        }

    @property
    def quorum_lost(self) -> bool:
        return self.m.quorum_lost

    def begun_steps(self) -> Dict[int, int]:
        """Per-rank top-of-step watermarks (the restart replay filter)."""
        begun = self.layout.field(self.ctrl, "begun")
        return {r: int(begun[r]) for r in range(self.layout.world)}
