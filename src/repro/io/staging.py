"""Resilient burst-buffer staging tier (the DataWarp → Lustre hierarchy).

Section IV-C: "we used the Cray DataWarp ... to accelerate the reading
of data.  The full dataset was staged on the DataWarp storage before
the training runs" — and Section VI-A shows that this staging tier is
what keeps 8192 nodes fed where Lustre collapses.  At that scale the
tier itself fails routinely: stage-ins abort, individual burst-buffer
server nodes go slow, whole allocations get evicted by the scheduler.
This module models that hierarchy as real code paths with the failure
handling a production staging tier needs:

* **Byte-verified, atomic stage-in** — every shard copied from the
  backing store (Lustre-modeled) into the bounded burst-buffer
  directory is written under a temporary name, read back and compared
  byte for byte with what was read from the source, then renamed into
  place; a copy that differs is a failed stage-in, and a reader never
  sees (or keeps a mapping of) a half-written or rewritten file.
* **Retry with exponential backoff + jitter** — failed stage-ins are
  retried on a :class:`~repro.utils.retry.RetryPolicy` schedule with
  seeded jitter, so storms of synchronized retries (and flaky
  `STAGE_FAIL` injections) are absorbed deterministically.
* **Hedged reads** — when a hot-tier read stalls past
  ``hedge_budget_s`` (an injected ``TARGET_SLOW`` delay), a duplicate
  read is issued against the backing store and wins (the classic
  tail-tolerance technique; here it also feeds the breaker).
* **Per-target circuit breakers** — each file maps to one of
  ``n_targets`` burst-buffer server nodes; ``breaker_threshold``
  consecutive failures (failed stage-ins, over-budget reads) trip that
  target's breaker OPEN, all of its traffic falls back to the backing
  store, and after ``breaker_reset_s`` the breaker HALF-OPENs to probe
  with a single read.
* **Quarantine + re-stage** — a staged copy that yields corrupt
  records is moved to ``<bb_dir>/quarantine/`` and re-staged from the
  backing store; corruption that survives a re-stage is the source's
  problem and is handed back to the reader's strict/non-strict policy.
* **Degraded-mode fallback** — an evicted burst buffer (``BB_EVICT``),
  an open breaker, an exhausted stage-in retry budget, or a copy that a
  concurrent reader's stage-in evicted between this reader resolving it
  and opening it all degrade to direct backing-store reads instead of
  raising; every fallback is counted in :class:`StagingStats`.

Determinism: all decisions (hedge-or-not, breaker trips, half-open
transitions, retry jitter) are made on a **virtual clock** advanced by
injected delays and seeded retry backoffs — jitter is seeded per
``(file, visit)`` so the same seed and :class:`~repro.faults.FaultPlan`
reproduce the same decision sequence.
"""

from __future__ import annotations

import os
import shutil
import threading
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.obs.tracer import NULL_TRACER
from repro.utils import checksum
from repro.utils.breaker import BreakerState, CircuitBreaker
from repro.utils.logging import get_logger
from repro.utils.retry import RetryPolicy, jittered_delay
from repro.utils.rng import derive_seed, new_rng

__all__ = [
    "StageError",
    "BreakerState",
    "CircuitBreaker",
    "StagingConfig",
    "StagingStats",
    "StagedRead",
    "StagingManager",
]

_log = get_logger("io.staging")

#: Stage-in retry schedule, and the +/- fraction of each backoff drawn
#: from the seeded per-visit generator.
RETRY = RetryPolicy(base_delay_s=0.05)
RETRY_JITTER = 0.25


class StageError(IOError):
    """A stage-in failed terminally (retry budget exhausted)."""


@dataclass(frozen=True)
class StagingConfig:
    """Policy knobs for the staging tier.

    ``capacity_bytes`` bounds the burst-buffer allocation (LRU eviction
    on overflow; ``None`` = unbounded).  ``hedge_budget_s`` is the
    hot-tier stall past which a read is hedged against the backing
    store (``None`` disables hedging).  ``n_targets`` is the
    number of burst-buffer server nodes files are distributed over —
    the granularity at which breakers trip (DataWarp: 125 server nodes
    for the paper's allocation).
    """

    capacity_bytes: Optional[int] = None
    hedge_budget_s: Optional[float] = None
    n_targets: int = 4
    breaker_threshold: int = 3
    breaker_reset_s: float = 30.0

    def __post_init__(self):
        if self.capacity_bytes is not None and self.capacity_bytes < 1:
            raise ValueError("capacity_bytes must be >= 1 (or None)")
        if self.hedge_budget_s is not None and self.hedge_budget_s < 0:
            raise ValueError("hedge_budget_s must be >= 0 (or None)")
        if self.n_targets < 1:
            raise ValueError("n_targets must be >= 1")


@dataclass
class StagingStats:
    """Everything the staging tier did, as numbers.

    These are the counters the A8 benchmark and ``repro stage`` report,
    and the ones :class:`~repro.io.pipeline.PipelineStats` snapshots so
    degraded reads never disappear silently.
    """

    stage_ins: int = 0
    stage_retries: int = 0
    stage_failures: int = 0
    restages: int = 0
    quarantined: int = 0
    bb_reads: int = 0
    fallback_reads: int = 0
    hedged_reads: int = 0
    hedge_wins: int = 0
    breaker_trips: int = 0
    breaker_half_opens: int = 0
    evictions: int = 0
    capacity_evictions: int = 0
    bytes_staged: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def describe(self) -> str:
        """A compact multi-line report (nonzero counters only)."""
        lines = ["staging tier:"]
        for name, value in self.as_dict().items():
            if value:
                lines.append(f"  {name.replace('_', ' ')}: {value}")
        if len(lines) == 1:
            lines.append("  idle (no staging activity)")
        return "\n".join(lines)


class StagedRead(NamedTuple):
    """Resolution of one read request against the tier hierarchy."""

    path: Path  # the physical file to read
    tier: str  # "bb" | "backing" | "hedge"


class _StagedFile(NamedTuple):
    path: Path
    nbytes: int


class StagingManager:
    """Fault-tolerant staging of record shards into a burst buffer.

    Parameters
    ----------
    bb_dir
        Directory standing in for the burst-buffer allocation; staged
        copies (and the quarantine) live here.
    config
        :class:`StagingConfig` policy.
    seed
        Seeds retry jitter; with the same seed and fault plan every
        decision replays identically.
    injector
        Optional :class:`~repro.faults.FaultInjector` supplying
        ``STAGE_FAIL`` / ``TARGET_SLOW`` / ``BB_EVICT`` events.
    tracer
        Optional :class:`~repro.obs.tracer.Tracer`; every decision-log
        entry is mirrored as an instant event on the ``"staging"``
        track, stamped with the virtual clock (``vts``).
    """

    def __init__(
        self,
        bb_dir,
        config: Optional[StagingConfig] = None,
        seed: int = 0,
        injector=None,
        tracer=None,
    ):
        self.bb_dir = Path(bb_dir)
        self.bb_dir.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir = self.bb_dir / "quarantine"
        self.config = config or StagingConfig()
        self.seed = seed
        self.injector = injector
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = StagingStats()
        #: Human-readable decision log ("stage:x", "hedge:y", "trip:t2",
        #: ...) — the determinism tests compare two runs' logs verbatim.
        self.events: List[str] = []
        #: Virtual clock (seconds of injected delay and backoff accrued).
        self.clock_s = 0.0
        #: Staged copies, least recently used first: a stage-in or a hit
        #: moves its file to the end, and capacity evicts from the front.
        self._staged: Dict[Path, _StagedFile] = {}
        self._visits: Dict[Path, int] = {}  # per-file read/stage ordinal
        self._breakers = [
            CircuitBreaker(
                f"target-{t}",
                threshold=self.config.breaker_threshold,
                reset_s=self.config.breaker_reset_s,
            )
            for t in range(self.config.n_targets)
        ]
        self._lock = threading.RLock()

    # -- geometry ------------------------------------------------------------

    def target_of(self, path) -> int:
        """The burst-buffer server node a file's stripes live on."""
        return checksum.crc32(Path(path).name.encode("utf-8")) % self.config.n_targets

    def breaker(self, target: int) -> CircuitBreaker:
        return self._breakers[target]

    def breaker_states(self) -> Dict[str, str]:
        return {b.name: b.state.value for b in self._breakers}

    def is_staged(self, path) -> bool:
        with self._lock:
            return Path(path) in self._staged

    @property
    def staged_bytes(self) -> int:
        with self._lock:
            return sum(e.nbytes for e in self._staged.values())

    # -- decision log --------------------------------------------------------

    def _event(self, kind: str, detail) -> None:
        """Record one decision: string log plus (optionally) a trace instant.

        The instant carries the *virtual* timestamp so two runs with the
        same seed and fault plan produce identical event sequences even
        though their wall clocks differ.
        """
        self.events.append(f"{kind}:{detail}")
        if self.tracer.enabled:
            self.tracer.instant(
                kind, cat="io", track="staging", file=str(detail), vts=self.clock_s
            )

    # -- virtual time ----------------------------------------------------------

    def _advance(self, dt: float) -> None:
        if dt > 0:
            self.clock_s += dt

    def _next_visit(self, path: Path) -> int:
        """Take the file's next visit ordinal.  Reads and stage-ins share
        the count, so a stage-in's jitter seed ``(file, visit)`` does not
        depend on cross-file interleaving."""
        visit = self._visits.get(path, 0)
        self._visits[path] = visit + 1
        return visit

    # -- breaker bookkeeping -------------------------------------------------

    def _record_failure(self, target: int) -> None:
        b = self._breakers[target]
        before = b.state
        trips = b.trips
        half = b.half_opens
        b.record_failure(self.clock_s)
        self.stats.breaker_trips += b.trips - trips
        self.stats.breaker_half_opens += b.half_opens - half
        if b.state is BreakerState.OPEN and before is not BreakerState.OPEN:
            self._event("trip", b.name)
            _log.warning("circuit breaker %s tripped OPEN", b.name)

    def _allow(self, target: int) -> bool:
        b = self._breakers[target]
        half = b.half_opens
        ok = b.allow(self.clock_s)
        if b.half_opens != half:
            self.stats.breaker_half_opens += b.half_opens - half
            self._event("half-open", b.name)
        return ok

    # -- stage-in ------------------------------------------------------------

    def stage(self, source) -> bool:
        """Stage one file into the burst buffer; ``True`` on success.

        Retries with jittered exponential backoff; a terminal failure
        counts against the target's breaker and leaves the file to be
        served from the backing store (degraded, not fatal).
        """
        source = Path(source)
        with self._lock:
            if source in self._staged:
                self._touch(source)
                return True
            target = self.target_of(source)
            visit = self._next_visit(source)
            rng = None
            for attempt in range(RETRY.max_attempts):
                try:
                    self._stage_once(source, attempt)
                except (OSError, StageError) as exc:
                    if attempt + 1 >= RETRY.max_attempts:
                        self.stats.stage_failures += 1
                        self._event("stage-fail", source.name)
                        self._record_failure(target)
                        _log.warning("stage-in of %s failed terminally: %s", source, exc)
                        return False
                    self.stats.stage_retries += 1
                    if rng is None:
                        rng = new_rng(derive_seed(self.seed, "stage", source.name, visit))
                    self._advance(jittered_delay(RETRY, attempt, jitter=RETRY_JITTER, rng=rng))
                else:
                    self._event("stage", source.name)
                    self.breaker(target).record_success()
                    return True
        return False  # pragma: no cover - loop always returns

    def _stage_once(self, source: Path, attempt: int) -> None:
        if self.injector is not None:
            self.injector.on_stage(source, attempt=attempt)
        data = source.read_bytes()
        dest = self.bb_dir / source.name
        # Never written in place: a reader may hold a mapping of a file
        # already under this name (another rank's copy on the shared
        # allocation, or one an earlier run left behind).
        landing = dest.with_name(f"{dest.name}.{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            landing.write_bytes(data)
            if landing.read_bytes() != data:
                raise StageError(
                    f"stage-in of {source.name}: the bytes read back from the "
                    f"burst buffer differ from the {len(data)} read from the source"
                )
            os.replace(landing, dest)
        except BaseException:
            landing.unlink(missing_ok=True)
            raise
        self._staged[source] = _StagedFile(dest, len(data))
        self.stats.stage_ins += 1
        self.stats.bytes_staged += len(data)
        self._enforce_capacity()

    def stage_all(self, sources: Sequence) -> int:
        """Stage a manifest's shards; returns how many staged cleanly."""
        return sum(1 for s in sources if self.stage(s))

    def _touch(self, source: Path) -> None:
        """Make ``source`` the most recently used staged file."""
        self._staged[source] = self._staged.pop(source)

    def _enforce_capacity(self) -> None:
        """Evict least recently used files until the staged bytes fit; the
        file just staged, last in the order, always stays."""
        cap = self.config.capacity_bytes
        if cap is None:
            return
        while self.staged_bytes > cap and len(self._staged) > 1:
            victim = next(iter(self._staged))
            self._drop(victim)
            self.stats.capacity_evictions += 1
            self._event("lru-evict", victim.name)

    def _drop(self, source: Path) -> None:
        entry = self._staged.pop(source, None)
        if entry is not None:
            entry.path.unlink(missing_ok=True)

    # -- eviction / quarantine -----------------------------------------------

    def evict_all(self) -> int:
        """Lose the whole burst-buffer allocation (scheduler eviction)."""
        with self._lock:
            n = len(self._staged)
            for source in list(self._staged):
                self._drop(source)
            if n:
                self.stats.evictions += 1
                self._event("bb-evict", n)
                _log.warning("burst-buffer allocation evicted (%d staged files lost)", n)
            return n

    def handle_evicted(self, source) -> StagedRead:
        """The copy :meth:`read` resolved was gone when the reader came
        to open it — a later read's stage-in evicted it in between.
        The eviction is already counted; the read degrades to the
        backing store like any other read of an evicted file."""
        source = Path(source)
        with self._lock:
            self.stats.fallback_reads += 1
            self._event("fallback", source.name)
        return StagedRead(source, "backing")

    def handle_corrupt(self, source) -> StagedRead:
        """A staged copy yielded corrupt records: quarantine it, re-stage
        from the backing store, and return where to re-read from.

        If the re-stage fails (or corruption came from the source
        itself) the caller gets a backing-store read and the reader's
        strict/non-strict policy decides what a corrupt *source* means.
        """
        source = Path(source)
        with self._lock:
            entry = self._staged.get(source)
            if entry is not None:
                self.quarantine_dir.mkdir(parents=True, exist_ok=True)
                qpath = self.quarantine_dir / f"{entry.path.name}.{self.stats.quarantined}"
                try:
                    shutil.move(str(entry.path), str(qpath))
                except OSError:
                    entry.path.unlink(missing_ok=True)
                del self._staged[source]
                self.stats.quarantined += 1
                self._event("quarantine", source.name)
                _log.warning("quarantined corrupt staged copy of %s", source.name)
            if self.stage(source):
                self.stats.restages += 1
                self._event("restage", source.name)
                return StagedRead(self._staged[source].path, "bb")
            self.stats.fallback_reads += 1
            return StagedRead(source, "backing")

    # -- the read path -------------------------------------------------------

    def read(self, source) -> StagedRead:
        """Resolve one read through the tier hierarchy.

        The fallback ladder, top to bottom: staged burst-buffer copy →
        hedged read (a hot-tier stall past the budget, won by the backing
        store) → direct backing-store read (open breaker, eviction, or
        failed stage-in; a miss stages first).  Never raises for tier
        trouble — the worst outcome is a counted backing-store read.
        """
        source = Path(source)
        with self._lock:
            target = self.target_of(source)
            self._next_visit(source)
            slow_s = 0.0
            if self.injector is not None:
                slow_s, evict = self.injector.on_staged_read(source, target)
                if evict:
                    self.evict_all()
            entry = self._staged.get(source)
            allowed = self._allow(target)
            if entry is None and allowed and self.stage(source):
                entry = self._staged.get(source)
            elif entry is not None and allowed:
                self._touch(source)
            if entry is None or not allowed:
                self.stats.fallback_reads += 1
                self._event("fallback", source.name)
                return StagedRead(source, "backing")
            # Hot-tier read, hedged when it stalls past the budget.
            budget = self.config.hedge_budget_s
            if budget is not None and slow_s > budget:
                self.stats.hedged_reads += 1
                self._event("hedge", source.name)
                # An over-budget hot read is a target failure: this is
                # the signal that trips a slow target's breaker.  The
                # backing-store duplicate, issued at the budget, wins.
                self._record_failure(target)
                self.stats.hedge_wins += 1
                self._advance(budget)
                return StagedRead(source, "hedge")
            self._advance(slow_s)
            self.stats.bb_reads += 1
            self.breaker(target).record_success()
            return StagedRead(entry.path, "bb")
