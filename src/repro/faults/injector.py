"""Runtime fault injection.

A :class:`FaultInjector` binds a :class:`~repro.faults.plan.FaultPlan`
to a running system.  Training, communication, and I/O code call its
hooks at well-defined injection points; the injector matches pending
events, fires each **once**, and keeps per-kind counters so benchmarks
can report exactly what was injected versus what was recovered.

The hooks are all cheap no-ops for an empty plan, so production code
paths can consult an injector unconditionally.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan

__all__ = [
    "InjectedFault",
    "InjectedCrash",
    "InjectedStageError",
    "FaultInjector",
]


class InjectedFault(Exception):
    """Base class for exceptions raised by the fault injector."""


class InjectedCrash(InjectedFault, RuntimeError):
    """A scheduled rank crash (stands in for a dead node/process)."""


class InjectedStageError(InjectedFault, IOError):
    """A scheduled burst-buffer stage-in failure (transient unless
    repeated; absorbed by the staging tier's retry + fallback ladder)."""


class FaultInjector:
    """Thread-safe runtime for one :class:`FaultPlan`.

    Events are consumed at most once across the injector's lifetime,
    which may span elastic restarts of the training group.
    """

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan or FaultPlan()
        self._lock = threading.Lock()
        self._remaining: List[_Pending] = [_Pending(e) for e in self.plan.events]
        self._stages = 0  # stage-in operations (STAGE_FAIL domain)
        self._staged_reads = 0  # staged reads (TARGET_SLOW/BB_EVICT domain)
        self._dispatches = 0  # serving dispatches (REPLICA_* domain)
        self._local = threading.local()  # per-thread current stage index
        self._rank_step: Dict[int, int] = {}  # rank -> current training step
        self.fired: Dict[FaultKind, int] = {k: 0 for k in FaultKind}

    @property
    def empty(self) -> bool:
        return self.plan.empty

    def fired_total(self) -> int:
        return sum(self.fired.values())

    # -- matching ------------------------------------------------------------

    def _take(self, kind: FaultKind, rank: Optional[int], step: int) -> Optional[FaultEvent]:
        """Consume one matching pending event, if any."""
        with self._lock:
            for p in self._remaining:
                e = p.event
                if e.kind is not kind or p.left <= 0:
                    continue
                if e.rank is not None and e.rank != rank:
                    continue
                if e.step != step:
                    continue
                p.left -= 1
                if p.left == 0:
                    self._remaining.remove(p)
                self.fired[kind] += 1
                return e
        return None

    # -- rank-fault hooks (called by the elastic trainer) ---------------------

    def begin_step(self, rank: int, step: int) -> None:
        """Tell the injector ``rank`` is entering global training step
        ``step`` (``-1`` marks a pre-training phase such as the initial
        parameter broadcast, where no step-keyed fault may fire).

        While a rank has a recorded step, :meth:`corrupt_message` keys
        ``MESSAGE_CORRUPT`` events on it — the per-rank-per-step domain
        that :meth:`FaultPlan.sample` draws from — instead of the raw
        collective sequence number.
        """
        with self._lock:
            self._rank_step[rank] = step

    def maybe_crash(self, rank: int, step: int) -> None:
        """Raise :class:`InjectedCrash` if a crash is scheduled here.

        ``PROC_KILL`` events also fire here as ordinary crashes — on a
        thread-backed group a SIGKILL cannot be delivered to one rank
        without taking the whole interpreter, so the nearest honest
        realization is the same in-thread death ``RANK_CRASH`` gets.
        The real-process backend intercepts ``PROC_KILL`` first via
        :meth:`maybe_kill`, so there it is a genuine SIGKILL.
        """
        if self.empty:
            return
        if self._take(FaultKind.RANK_CRASH, rank, step) is not None:
            raise InjectedCrash(f"injected crash of rank {rank} at step {step}")
        if self._take(FaultKind.PROC_KILL, rank, step) is not None:
            raise InjectedCrash(
                f"injected crash of rank {rank} at step {step} (proc_kill on a "
                f"thread-backed group)"
            )

    def maybe_kill(self, rank: int, step: int) -> bool:
        """SIGKILL the calling process if a ``PROC_KILL`` is scheduled here.

        Called by real-process workers at the top of each step, *before*
        :meth:`maybe_crash`.  The kill is ``os.kill(os.getpid(),
        SIGKILL)`` — no exception propagation, no cleanup handlers, no
        atexit — so the supervisor's crash detection and the group's
        generation fencing are exercised against an actual uncleaned
        process death at a deterministic step boundary.  Returns False
        when nothing fires (the True return exists for tests that stub
        the kill).
        """
        if self.empty:
            return False
        if self._take(FaultKind.PROC_KILL, rank, step) is None:
            return False
        import os
        import signal

        os.kill(os.getpid(), signal.SIGKILL)
        return True  # pragma: no cover - unreachable after a real SIGKILL

    def hang_delay(self, rank: int, step: int) -> float:
        """Seconds this rank should stall at this step (0 = no fault)."""
        if self.empty:
            return 0.0
        e = self._take(FaultKind.RANK_HANG, rank, step)
        return e.delay_s if e is not None else 0.0

    # -- recovery hooks (called by the elastic trainer's grow-back path) -------

    @property
    def has_recoveries(self) -> bool:
        """Whether the plan schedules any rank rejoin / spare join."""
        return any(
            e.kind in (FaultKind.RANK_RECOVER, FaultKind.SPARE_JOIN)
            for e in self.plan.events
        )

    def recoveries_due(self, step: int) -> List[FaultEvent]:
        """Consume every ``RANK_RECOVER``/``SPARE_JOIN`` event scheduled
        at global training step ``step``.

        At most one caller gets each event (the surviving rank that
        reaches the step boundary first becomes the admitting rank —
        any survivor is a valid resync donor because synchronous SGD
        keeps every replica bitwise identical).
        """
        if self.empty:
            return []
        out: List[FaultEvent] = []
        with self._lock:
            for p in list(self._remaining):
                e = p.event
                if e.kind not in (FaultKind.RANK_RECOVER, FaultKind.SPARE_JOIN):
                    continue
                if e.step != step:
                    continue
                self._remaining.remove(p)
                self.fired[e.kind] += 1
                out.append(e)
        return out

    # -- communication hooks (called by the elastic communicator) -------------

    @property
    def corrupts_messages(self) -> bool:
        """Whether the comm layer needs to checksum contributions."""
        return any(e.kind is FaultKind.MESSAGE_CORRUPT for e in self.plan.events)

    def corrupt_message(self, rank: int, collective: int, array: np.ndarray) -> np.ndarray:
        """Return the "wire copy" of a contribution — bit-flipped when a
        corruption event matches.

        For ranks that report step boundaries via :meth:`begin_step`
        (the elastic trainer), events match on ``(rank, training
        step)`` and the rank's *first* checksummed contribution of that
        step takes the flip.  In standalone communicator use the key is
        ``collective``, the collective sequence number.
        """
        if self.empty:
            return array
        with self._lock:
            key = self._rank_step.get(rank, collective)
        if key < 0 or self._take(FaultKind.MESSAGE_CORRUPT, rank, key) is None:
            return array
        wire = np.array(array, copy=True)
        flat = wire.reshape(-1).view(np.uint8)
        flat[len(flat) // 2] ^= 0xFF
        return wire

    # -- staging hooks (called by repro.io.staging.StagingManager) -------------

    def on_stage(self, path, attempt: int = 0) -> None:
        """Injection point for one burst-buffer stage-in attempt.

        First attempts advance the stage-op counter ``STAGE_FAIL``
        events key on; retries re-test the same index, so an event with
        ``repeats > 1`` keeps a stage-in failing until the retry budget
        outlasts it (or terminally, degrading that file to backing-store
        reads).
        """
        if self.empty:
            return
        if attempt == 0:
            with self._lock:
                stage_index = self._stages
                self._stages += 1
            self._local.stage_index = stage_index
        else:
            stage_index = getattr(self._local, "stage_index", self._stages - 1)
        if self._take(FaultKind.STAGE_FAIL, None, stage_index) is not None:
            raise InjectedStageError(
                f"injected stage-in failure on {path} "
                f"(stage op #{stage_index}, attempt {attempt})"
            )

    def on_staged_read(self, path, target: int):
        """Injection point for one read through the staging tier.

        Returns ``(extra_latency_s, evict)``: a ``TARGET_SLOW`` stall
        to add to the hot tier's modeled latency (0 when none fires,
        or when the event pins a different target via its ``rank``
        slot), and whether a ``BB_EVICT`` event revokes the whole
        burst-buffer allocation before this read.
        """
        if self.empty:
            return 0.0, False
        with self._lock:
            read_index = self._staged_reads
            self._staged_reads += 1
        evict = self._take(FaultKind.BB_EVICT, None, read_index) is not None
        e = self._take(FaultKind.TARGET_SLOW, target, read_index)
        return (e.delay_s if e is not None else 0.0), evict

    # -- serving hooks (called by repro.serve's replica pool) -------------------

    def on_dispatch(self, replica: int):
        """Injection point for one inference-batch dispatch.

        Advances the serving-dispatch counter ``REPLICA_CRASH`` /
        ``REPLICA_SLOW`` events key on and returns ``(crash, slow_s)``:
        whether this dispatch's replica dies mid-batch, and any extra
        straggle seconds to add to its modeled service time.  An event
        whose ``rank`` slot pins a different replica leaves this
        dispatch alone (the counter still advances — the event domain
        is dispatches, not matches).
        """
        if self.empty:
            return False, 0.0
        with self._lock:
            index = self._dispatches
            self._dispatches += 1
        crash = self._take(FaultKind.REPLICA_CRASH, replica, index) is not None
        e = self._take(FaultKind.REPLICA_SLOW, replica, index)
        return crash, (e.delay_s if e is not None else 0.0)

    # -- on-disk corruption (test/benchmark utility) ---------------------------

    def corrupt_record_file(self, path) -> int:
        """Flip one payload byte of each scheduled ``RECORD_CORRUPT``
        record in ``path`` (events match on record index).  Returns the
        number of records corrupted.

        This mutates the file in place — the injection happens on disk,
        so the reader's CRC check detects it exactly as it would detect
        real bit rot.
        """
        from repro.io.records import _CRC, _LENGTH  # framing layout

        targets = set()
        with self._lock:
            for p in list(self._remaining):
                if p.event.kind is FaultKind.RECORD_CORRUPT:
                    targets.add(p.event.step)
                    self._remaining.remove(p)
                    self.fired[FaultKind.RECORD_CORRUPT] += 1
        if not targets:
            return 0
        path = Path(path)
        data = bytearray(path.read_bytes())
        corrupted = 0
        offset = 0
        index = 0
        while offset + _LENGTH.size + _CRC.size <= len(data):
            (length,) = _LENGTH.unpack_from(data, offset)
            payload_at = offset + _LENGTH.size + _CRC.size
            if index in targets and payload_at + length <= len(data):
                data[payload_at + length // 2] ^= 0xFF
                corrupted += 1
            offset = payload_at + length + _CRC.size
            index += 1
        path.write_bytes(bytes(data))
        return corrupted

    # -- reporting -------------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        """Fired-event counts by kind (only nonzero entries)."""
        return {k.value: v for k, v in self.fired.items() if v}


class _Pending:
    """A plan event plus its remaining fire count."""

    __slots__ = ("event", "left")

    def __init__(self, event: FaultEvent):
        self.event = event
        self.left = event.repeats
