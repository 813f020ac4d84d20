"""Deterministic fault schedules.

At 8192 nodes the paper's fully synchronous training has no tolerance
for failure: one dead rank kills the allreduce, one slow OST stalls an
epoch (Sections III-D, VI-A/B).  To *test* the resilience layer this
repo adds, faults must be reproducible — the same seed must kill the
same rank at the same step on every run, so convergence-under-failure
experiments are comparable across commits.

A :class:`FaultPlan` is an explicit, ordered list of
:class:`FaultEvent` entries.  Plans are built either directly (pin a
crash to a rank/step for a regression test) or sampled from per-kind
rates with :meth:`FaultPlan.sample` (sweep failure rates in the A7
benchmark).  Every event fires **at most once** — the runtime
:class:`~repro.faults.injector.FaultInjector` tracks consumption, so a
crash that already happened does not re-fire after an elastic restart
replaces the dead rank.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["FaultKind", "FaultEvent", "FaultPlan", "PLAN_SCHEMA_VERSION"]

#: Version of the JSON wire format produced by :meth:`FaultPlan.to_json`.
#: Bump it when the schema changes shape; :meth:`FaultPlan.from_json`
#: rejects documents from a future version instead of misreading them.
PLAN_SCHEMA_VERSION = 1


class FaultKind(enum.Enum):
    """The failure modes the injection framework can produce."""

    #: A rank dies at the top of a training step (process crash).  In
    #: the thread backend this raises
    #: :class:`~repro.faults.injector.InjectedCrash` inside the rank; in
    #: the real-process backend the worker process exits with a
    #: traceback — a genuine process death either way.
    RANK_CRASH = "rank_crash"
    #: A rank is SIGKILLed at the top of a training step — no cleanup,
    #: no exception handlers, no atexit: the hardest death the OS can
    #: deliver.  Only meaningful on the real-process backend (a thread
    #: cannot be SIGKILLed without taking the interpreter with it);
    #: thread-backed runs treat it like ``RANK_CRASH``.
    PROC_KILL = "proc_kill"
    #: A rank sleeps ``delay_s`` at the top of a step (hang / straggler).
    RANK_HANG = "rank_hang"
    #: One rank's contribution to one collective is bit-flipped in
    #: transit (detected by the communicator's checksum, retransmitted).
    MESSAGE_CORRUPT = "message_corrupt"
    #: A record payload on disk is bit-flipped (detected by the TFRecord
    #: CRC, skipped by the non-strict reader).
    RECORD_CORRUPT = "record_corrupt"
    #: A burst-buffer stage-in attempt fails (retried with backoff +
    #: jitter; terminal failure degrades to backing-store reads).
    STAGE_FAIL = "stage_fail"
    #: One staged read's burst-buffer target stalls an extra
    #: ``delay_s`` (slow OST / DataWarp server node; hedged past the
    #: latency budget, and repeated stalls trip the target's breaker).
    TARGET_SLOW = "target_slow"
    #: The whole burst-buffer allocation is evicted (scheduler revokes
    #: the DataWarp reservation); staged copies vanish and reads
    #: degrade to the backing store until re-staged.
    BB_EVICT = "bb_evict"
    #: A previously crashed/evicted rank recovers and asks to rejoin
    #: the group at the top of global step ``step`` (grow-back).  It is
    #: readmitted at a generation boundary and resynced from a
    #: surviving replica before its first collective.
    RANK_RECOVER = "rank_recover"
    #: A warm spare joins at the top of global step ``step``, assuming
    #: the identity (rank id, data shard, RNG stream) of a dead rank —
    #: ``rank`` pins which one (``None`` = the lowest dead rank).
    #: Consumes one slot from the group's spare pool.
    SPARE_JOIN = "spare_join"
    #: An inference replica dies mid-batch (serving-node crash).  The
    #: batch it was computing never completes; the pool redrains its
    #: in-flight requests and (if available) brings up a warm spare.
    #: ``step`` is the pool's dispatch ordinal; ``rank`` optionally
    #: pins the replica id (``None`` = whichever replica takes that
    #: dispatch).
    REPLICA_CRASH = "replica_crash"
    #: An inference replica straggles: one dispatched batch takes an
    #: extra ``delay_s`` (GC pause, noisy neighbor, thermal throttle).
    #: Hedged dispatch races a duplicate past the latency budget.  Keyed
    #: like ``REPLICA_CRASH``.
    REPLICA_SLOW = "replica_slow"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    The key fields depend on the kind:

    * rank faults (``RANK_CRASH``/``RANK_HANG``) match on
      ``(rank, step)`` where ``step`` is the global training step;
    * ``MESSAGE_CORRUPT`` also matches on ``(rank, step)`` with
      ``step`` the global training step when the training loop reports
      step boundaries via :meth:`FaultInjector.begin_step` (the rank's
      first checksummed contribution of that step is corrupted); in
      standalone communicator use, ``step`` is the collective sequence
      number;
    * ``RECORD_CORRUPT`` matches on ``step`` = record index within the
      file handed to :meth:`FaultInjector.corrupt_record_file`;
    * ``STAGE_FAIL`` matches on ``step`` = the injector's stage-in
      counter (first attempts only; ``repeats`` makes the same stage-in
      keep failing across retries);
    * ``TARGET_SLOW``/``BB_EVICT`` match on ``step`` = the injector's
      staged-read counter; ``TARGET_SLOW`` may additionally pin a
      burst-buffer target via the ``rank`` slot (``None`` = any);
    * ``REPLICA_CRASH``/``REPLICA_SLOW`` match on ``step`` = the
      injector's serving-dispatch counter, with the ``rank`` slot
      optionally pinning a replica id (``None`` = any).

    ``repeats`` lets a stage-in failure persist for several attempts so
    the retry path is genuinely exercised (default: transient, one
    attempt).
    """

    kind: FaultKind
    rank: Optional[int] = None
    step: int = 0
    delay_s: float = 0.0
    repeats: int = 1

    def __post_init__(self):
        if self.step < 0:
            raise ValueError("step must be >= 0")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        needs_rank = self.kind in (
            FaultKind.RANK_CRASH,
            FaultKind.PROC_KILL,
            FaultKind.RANK_HANG,
            FaultKind.MESSAGE_CORRUPT,
            FaultKind.RANK_RECOVER,
        )
        if needs_rank and self.rank is None:
            raise ValueError(f"{self.kind.value} events need a rank")


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of faults.

    ``FaultPlan(seed=7)`` with no events is the empty (fault-free)
    plan; the seed still names the plan in reports.  Use
    :meth:`sample` to draw a random plan from failure rates.
    """

    seed: int = 0
    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: FaultKind) -> List[FaultEvent]:
        return [e for e in self.events if e.kind is kind]

    def with_recovery(self, after_steps: int) -> "FaultPlan":
        """Derive a grow-back schedule: every ``RANK_CRASH`` in this
        plan gains a matching ``RANK_RECOVER`` ``after_steps`` global
        steps later.

        The derivation is a pure function of the plan, so a sampled
        plan plus ``with_recovery`` is exactly as reproducible as the
        plan itself (the ``faultsim --recover-after`` contract).  Ranks
        that already have an explicit recovery keep only it.
        """
        if after_steps < 1:
            raise ValueError("after_steps must be >= 1")
        recovered = {e.rank for e in self.events if e.kind is FaultKind.RANK_RECOVER}
        derived = [
            FaultEvent(FaultKind.RANK_RECOVER, rank=e.rank, step=e.step + after_steps)
            for e in self.events
            if e.kind in (FaultKind.RANK_CRASH, FaultKind.PROC_KILL)
            and e.rank not in recovered
        ]
        return FaultPlan(seed=self.seed, events=tuple(self.events) + tuple(derived))

    def with_slow_rank(
        self,
        rank: int,
        delay_s: float,
        n_steps: int,
        rate: float = 1.0,
        start_step: int = 0,
    ) -> "FaultPlan":
        """Derive a straggler schedule: ``RANK_HANG`` events stalling
        ``rank`` an extra ``delay_s`` at (a ``rate`` Bernoulli subset
        of) steps ``start_step .. start_step + n_steps - 1``.

        Like :meth:`with_recovery`, the derivation is a pure function
        of the plan — the Bernoulli draw for ``rate < 1`` is seeded
        from ``(plan seed, rank, start_step)`` — so the ``train`` /
        ``faultsim`` ``--slow-rank`` flags are exactly as reproducible
        as a hand-written plan file.
        """
        if delay_s <= 0:
            raise ValueError("delay_s must be > 0 (a zero delay stalls nothing)")
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not 0.0 < rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")
        if start_step < 0:
            raise ValueError("start_step must be >= 0")
        from repro.utils.rng import derive_seed

        rng = np.random.default_rng(derive_seed(self.seed, "slow-rank", rank, start_step))
        derived = [
            FaultEvent(FaultKind.RANK_HANG, rank=rank, step=step, delay_s=delay_s)
            for step in range(start_step, start_step + n_steps)
            if rate >= 1.0 or rng.random() < rate
        ]
        return FaultPlan(seed=self.seed, events=tuple(self.events) + tuple(derived))

    @property
    def empty(self) -> bool:
        return not self.events

    def validate(self, n_ranks: int, n_steps: Optional[int] = None) -> List[str]:
        """Sanity-check the plan against a run's geometry.

        Returns one human-readable problem string per infeasible event
        (empty list = plan is feasible):

        * a rank-keyed event referencing a rank outside
          ``[0, n_ranks)`` — it would never fire, silently;
        * a delay-carrying event (``RANK_HANG``/``TARGET_SLOW``/
          ``REPLICA_SLOW``) with ``delay_s <= 0`` — it
          would fire and stall nothing, silently;
        * with ``n_steps`` given, a recovery event
          (``RANK_RECOVER``/``SPARE_JOIN``) scheduled at or past the
          run's last step — the rejoin could never be admitted.

        The ``faultsim`` CLI turns a non-empty return into a nonzero
        exit instead of quietly training through a plan that cannot do
        what was asked.
        """
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        rank_keyed = (
            FaultKind.RANK_CRASH,
            FaultKind.PROC_KILL,
            FaultKind.RANK_HANG,
            FaultKind.MESSAGE_CORRUPT,
            FaultKind.RANK_RECOVER,
            FaultKind.SPARE_JOIN,
        )
        delay_kinds = (
            FaultKind.RANK_HANG,
            FaultKind.TARGET_SLOW,
            FaultKind.REPLICA_SLOW,
        )
        problems: List[str] = []
        for e in self.events:
            if e.kind in rank_keyed and e.rank is not None and not 0 <= e.rank < n_ranks:
                problems.append(
                    f"{e.kind.value} at step {e.step} references rank {e.rank}, "
                    f"but the run has ranks 0..{n_ranks - 1}"
                )
            if e.kind in delay_kinds and e.delay_s <= 0:
                problems.append(
                    f"{e.kind.value} at step {e.step} has delay_s={e.delay_s:g} — "
                    f"it would fire without stalling anything"
                )
            if (
                n_steps is not None
                and e.kind in (FaultKind.RANK_RECOVER, FaultKind.SPARE_JOIN)
                and e.step >= n_steps
            ):
                problems.append(
                    f"{e.kind.value} of rank {e.rank} scheduled at step {e.step}, "
                    f"past the run's last step boundary ({n_steps - 1}) — "
                    f"it would never be admitted"
                )
        return problems

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        """The plan as a JSON document (see :data:`PLAN_SCHEMA_VERSION`).

        This is how seeded fault schedules ship to worker *processes*:
        the real-process backend serializes the plan once in the parent
        and every spawned rank rebuilds an identical injector from it,
        so a schedule replays bitwise across process boundaries.  Only
        JSON-native types appear in the document — no pickle, so a plan
        file is inspectable and diffable.
        """
        doc = {
            "schema_version": PLAN_SCHEMA_VERSION,
            "seed": int(self.seed),
            "events": [
                {
                    "kind": e.kind.value,
                    "rank": e.rank,
                    "step": int(e.step),
                    "delay_s": float(e.delay_s),
                    "repeats": int(e.repeats),
                }
                for e in self.events
            ],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Rebuild a plan written by :meth:`to_json`.

        Raises :class:`ValueError` on a malformed document, an unknown
        fault kind, or a ``schema_version`` newer than this build
        understands (fail loudly rather than replay the wrong faults).
        """
        try:
            doc: Dict[str, Any] = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError("fault plan document must be a JSON object")
        version = doc.get("schema_version")
        if not isinstance(version, int):
            raise ValueError("fault plan document lacks an integer schema_version")
        if version > PLAN_SCHEMA_VERSION:
            raise ValueError(
                f"fault plan schema_version {version} is newer than the "
                f"supported version {PLAN_SCHEMA_VERSION}"
            )
        kinds = {k.value: k for k in FaultKind}
        events: List[FaultEvent] = []
        for entry in doc.get("events", []):
            kind = entry.get("kind")
            if kind not in kinds:
                raise ValueError(f"unknown fault kind {kind!r} in plan document")
            events.append(
                FaultEvent(
                    kinds[kind],
                    rank=entry.get("rank"),
                    step=int(entry.get("step", 0)),
                    delay_s=float(entry.get("delay_s", 0.0)),
                    repeats=int(entry.get("repeats", 1)),
                )
            )
        return cls(seed=int(doc.get("seed", 0)), events=tuple(events))

    def save(self, path) -> Path:
        """Write :meth:`to_json` to ``path``; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path) -> "FaultPlan":
        """Read a plan file written by :meth:`save` (the ``faultsim
        --plan-file`` loader)."""
        return cls.from_json(Path(path).read_text())

    def describe(self) -> str:
        """One line per event, for logs and benchmark reports."""
        if self.empty:
            return f"FaultPlan(seed={self.seed}): no faults"
        lines = [f"FaultPlan(seed={self.seed}): {len(self.events)} events"]
        for e in self.events:
            where = f"rank={e.rank} " if e.rank is not None else ""
            extra = f" delay={e.delay_s:.3g}s" if e.delay_s else ""
            extra += f" repeats={e.repeats}" if e.repeats > 1 else ""
            lines.append(f"  {e.kind.value}: {where}step={e.step}{extra}")
        return "\n".join(lines)

    @classmethod
    def sample(
        cls,
        seed: int,
        n_ranks: int,
        n_steps: int,
        crash_rate: float = 0.0,
        hang_rate: float = 0.0,
        hang_delay_s: float = 0.05,
        corrupt_rate: float = 0.0,
        stage_fail_rate: float = 0.0,
        n_stage_ops: int = 0,
        stage_fail_repeats: int = 1,
        target_slow_rate: float = 0.0,
        target_slow_s: float = 0.05,
        bb_evict_rate: float = 0.0,
        n_staged_reads: int = 0,
        replica_crash_rate: float = 0.0,
        replica_slow_rate: float = 0.0,
        replica_slow_s: float = 0.05,
        n_dispatches: int = 0,
    ) -> "FaultPlan":
        """Draw a plan from per-(rank, step) Bernoulli rates.

        ``crash_rate`` etc. are probabilities per rank per step (per
        stage-in over ``n_stage_ops``; per staged read over
        ``n_staged_reads`` for the burst-buffer kinds; per serving
        dispatch over ``n_dispatches`` for the replica kinds).  The
        draw is fully determined by ``seed``.
        """
        if n_ranks < 1 or n_steps < 0:
            raise ValueError("need n_ranks >= 1 and n_steps >= 0")
        for name, rate in (
            ("crash_rate", crash_rate),
            ("hang_rate", hang_rate),
            ("corrupt_rate", corrupt_rate),
            ("stage_fail_rate", stage_fail_rate),
            ("target_slow_rate", target_slow_rate),
            ("bb_evict_rate", bb_evict_rate),
            ("replica_crash_rate", replica_crash_rate),
            ("replica_slow_rate", replica_slow_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if stage_fail_repeats < 1:
            raise ValueError("stage_fail_repeats must be >= 1")
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []
        crashed: set = set()
        for step in range(n_steps):
            for rank in range(n_ranks):
                if rank in crashed:
                    continue
                if crash_rate and rng.random() < crash_rate:
                    events.append(FaultEvent(FaultKind.RANK_CRASH, rank=rank, step=step))
                    crashed.add(rank)
                    continue
                if hang_rate and rng.random() < hang_rate:
                    events.append(
                        FaultEvent(
                            FaultKind.RANK_HANG, rank=rank, step=step, delay_s=hang_delay_s
                        )
                    )
                if corrupt_rate and rng.random() < corrupt_rate:
                    events.append(
                        FaultEvent(FaultKind.MESSAGE_CORRUPT, rank=rank, step=step)
                    )
        for op in range(n_stage_ops):
            if stage_fail_rate and rng.random() < stage_fail_rate:
                events.append(
                    FaultEvent(FaultKind.STAGE_FAIL, step=op, repeats=stage_fail_repeats)
                )
        for read in range(n_staged_reads):
            if target_slow_rate and rng.random() < target_slow_rate:
                events.append(
                    FaultEvent(FaultKind.TARGET_SLOW, step=read, delay_s=target_slow_s)
                )
            if bb_evict_rate and rng.random() < bb_evict_rate:
                events.append(FaultEvent(FaultKind.BB_EVICT, step=read))
        for dispatch in range(n_dispatches):
            if replica_crash_rate and rng.random() < replica_crash_rate:
                events.append(FaultEvent(FaultKind.REPLICA_CRASH, step=dispatch))
            if replica_slow_rate and rng.random() < replica_slow_rate:
                events.append(
                    FaultEvent(
                        FaultKind.REPLICA_SLOW, step=dispatch, delay_s=replica_slow_s
                    )
                )
        return cls(seed=seed, events=tuple(events))
