"""Bounded-staleness partial collectives (SSGD / SAGN).

The paper's training is fully synchronous: every step's allreduce
waits for all k ranks, so "a single slow node can significantly reduce
the aggregate performance" (Section II-C) — the straggler effect the
CPE ML Plugin's pipelined collectives exist to hide (Sections III-D,
VI-B).  This module implements the other classic mitigation:
**stale-synchronous** gradient aggregation, where each step folds in
the gradients of the fastest contributors (a quorum fraction) and lets
slow ranks' gradients arrive late — within a hard staleness bound
``s`` — instead of stalling the collective.

Two aggregation modes share the machinery:

* ``ssgd`` — a late gradient folds into the global average at the
  first step boundary after it arrives (staleness = fold step − birth
  step, never more than ``s``).
* ``sagn`` — late gradients accumulate in a time *window* and fold in
  together every ``window`` steps (or earlier when the bound forces
  them), à la the SAGN monitor's windowed accumulation.

Everything runs on **virtual time**: per-rank step durations are the
configured base time plus any scheduled ``RANK_HANG`` delay from a
:class:`~repro.faults.injector.FaultInjector` — no real sleeping — so
a seeded delay schedule replays bitwise and a straggler benchmark runs
in milliseconds.  Arrival order, fold order, and quarantine decisions
are pure functions of the schedule: fold order is the stable sort by
``(birth step, rank)``, which at ``staleness_bound=0`` degenerates to
plain rank order, making the bound-0 group **bitwise identical** to
the synchronous stepped/threaded baselines.

A :class:`StragglerMonitor` watches per-rank delivered-gradient
latency (an EWMA, reported in the group's stats), **quarantines** a
persistent straggler — demotes it to an asynchronous contributor whose
gradients no longer gate the quorum and are dropped when they exceed
the bound — and **rehabilitates** it after consecutive healthy
deliveries.

The group counts once, in its metrics registry (``stale.*``), and
:meth:`StaleGroup.stats` reads its totals back from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.comm.communicator import ReduceOp, reduce_arrays
from repro.comm.membership import quorum_size
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER

__all__ = ["StalenessConfig", "StragglerMonitor", "StaleGroup", "STALE_MODES"]

#: Aggregation modes the stale group implements.
STALE_MODES = ("ssgd", "sagn")

#: The monitor's per-rank latency EWMA smoothing.
EWMA_ALPHA = 0.5
#: Consecutive slow deliveries that quarantine a rank.
QUARANTINE_AFTER = 2
#: A quarantined rank's delivery counts as healthy at or under this
#: multiple of the other ranks' median EWMA ...
REHAB_FACTOR = 1.5
#: ... and this many consecutive healthy deliveries rehabilitate it.
REHAB_AFTER = 2


@dataclass(frozen=True)
class StalenessConfig:
    """Knobs of the bounded-staleness family.

    ``staleness_bound`` is the hard bound ``s``: a gradient born at
    step ``b`` must fold into the average by step ``b + s`` (the group
    stalls the step rather than exceed it).  ``0`` recovers fully
    synchronous SSGD bitwise.  ``quorum_fraction`` is the fraction of
    synchronous ranks whose gradients a step waits for before closing
    (when the bound does not force a longer wait).  ``window`` is the
    SAGN accumulation window in steps (``1`` folds late gradients
    immediately, i.e. plain ssgd behavior).

    ``base_step_time_s`` is the virtual fault-free per-rank step
    duration; injected ``RANK_HANG`` delays add to it.  A rank is
    quarantined after :data:`QUARANTINE_AFTER` consecutive deliveries
    with latency EWMA above ``quarantine_factor`` × the median of the
    *other* ranks' EWMAs (``quarantine_factor=None`` disables the
    monitor), and rehabilitated after :data:`REHAB_AFTER` consecutive
    deliveries no slower than :data:`REHAB_FACTOR` × that median.
    """

    staleness_bound: int = 4
    quorum_fraction: float = 0.5
    window: int = 1
    base_step_time_s: float = 0.01
    quarantine_factor: Optional[float] = 3.0

    def __post_init__(self):
        if self.staleness_bound < 0:
            raise ValueError("staleness_bound must be >= 0")
        if not 0.0 < self.quorum_fraction <= 1.0:
            raise ValueError("quorum_fraction must be in (0, 1]")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.base_step_time_s <= 0:
            raise ValueError("base_step_time_s must be > 0")
        if self.quarantine_factor is not None and self.quarantine_factor <= 1.0:
            raise ValueError("quarantine_factor must be > 1 (or None to disable)")

    @property
    def monitor_enabled(self) -> bool:
        return self.quarantine_factor is not None

    def resolve_quorum(self, n_sync: int) -> int:
        """Contributors a step waits for among ``n_sync`` sync ranks."""
        if n_sync < 1:
            return 0
        return quorum_size(n_sync, self.quorum_fraction)


class StragglerMonitor:
    """Per-rank delivered-gradient latency EWMA with quarantine and
    rehabilitation decisions.

    Decisions compare a rank against the median EWMA of the *other*
    ranks, so a lone straggler cannot drag the reference toward itself
    even in a two-rank group.  All inputs are virtual durations, so the
    decision sequence is a pure function of the delay schedule.
    """

    def __init__(self, n_ranks: int, config: StalenessConfig):
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        self.n_ranks = n_ranks
        self.config = config
        self.ewma: Dict[int, float] = {}
        self._slow_strikes: Dict[int, int] = {}
        self._healthy_strikes: Dict[int, int] = {}

    def _median_of_others(self, rank: int) -> Optional[float]:
        others = [v for r, v in self.ewma.items() if r != rank]
        if not others:
            return None
        return float(np.median(np.asarray(others, dtype=np.float64)))

    def observe(
        self, rank: int, step: int, duration_s: float, *, quarantined: bool
    ) -> Optional[str]:
        """Record one delivered gradient's compute duration.

        Returns ``"quarantine"`` or ``"rehabilitate"`` when the strike
        counters cross their thresholds, else ``None``.  The caller
        (the group) applies the membership change and emits the trace
        instant; the monitor only decides.
        """
        prev = self.ewma.get(rank)
        ew = duration_s if prev is None else EWMA_ALPHA * duration_s + (1.0 - EWMA_ALPHA) * prev
        self.ewma[rank] = ew
        if not self.config.monitor_enabled:
            return None
        median = self._median_of_others(rank)
        if median is None or median <= 0.0:
            return None
        if not quarantined:
            if ew > self.config.quarantine_factor * median:
                self._slow_strikes[rank] = self._slow_strikes.get(rank, 0) + 1
            else:
                self._slow_strikes[rank] = 0
            if self._slow_strikes[rank] >= QUARANTINE_AFTER:
                self._slow_strikes[rank] = 0
                self._healthy_strikes[rank] = 0
                return "quarantine"
        else:
            # Rehabilitation judges raw delivery latency, not the EWMA:
            # the EWMA's memory of the slow period would otherwise hold
            # a recovered rank in quarantine for many extra deliveries.
            if duration_s <= REHAB_FACTOR * median:
                self._healthy_strikes[rank] = self._healthy_strikes.get(rank, 0) + 1
            else:
                self._healthy_strikes[rank] = 0
            if self._healthy_strikes[rank] >= REHAB_AFTER:
                self._healthy_strikes[rank] = 0
                self._slow_strikes[rank] = 0
                return "rehabilitate"
        return None


class _InFlight:
    """One rank's gradient message traveling through virtual time."""

    __slots__ = ("rank", "birth", "start", "finish", "loss", "flat")

    def __init__(self, rank: int, birth: int, start: float, finish: float, loss, flat):
        self.rank = rank
        self.birth = birth
        self.start = start
        self.finish = finish
        self.loss = loss
        self.flat = flat


class StaleGroup:
    """A bounded-staleness gradient-aggregation group on virtual time.

    The driving loop calls :meth:`begin_step` to learn which ranks
    start a fresh gradient this step (a rank computes at most one
    gradient at a time), computes those gradients, and hands them to
    :meth:`complete_step`, which advances the virtual clock to the
    step's close and returns the folded ``(mean loss, mean flat
    gradient)``.

    A step closes at the latest of: the quorum-th fastest in-flight
    synchronous gradient, and every in-flight synchronous gradient
    whose staleness would otherwise exceed the bound (the hard-bound
    stall).  All gradients that have arrived by the close fold in, in
    the stable ``(birth, rank)`` order, through
    :func:`~repro.comm.communicator.reduce_arrays` — the same kernel
    the synchronous backends reduce with, which is what makes
    ``staleness_bound=0`` bitwise identical to them.

    ``metrics`` defaults to a fresh registry (``StaleBackend`` merges
    each run's into the engine's after it) and ``tracer`` to
    :data:`~repro.obs.tracer.NULL_TRACER`.
    """

    def __init__(
        self,
        size: int,
        config: Optional[StalenessConfig] = None,
        mode: str = "ssgd",
        injector=None,
        monitor: Optional[StragglerMonitor] = None,
        metrics=None,
        tracer=None,
    ):
        if size < 1:
            raise ValueError("size must be >= 1")
        if mode not in STALE_MODES:
            raise ValueError(f"unknown stale mode {mode!r}; expected one of {STALE_MODES}")
        self.size = size
        self.config = config or StalenessConfig()
        self.mode = mode
        self.injector = injector
        self.monitor = monitor
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The group's virtual clock: the close time of the last step.
        self.now = 0.0
        self._in_flight: Dict[int, _InFlight] = {}
        self.sync_ranks = set(range(size))
        self.quarantined: set = set()
        self._window_acc: List[_InFlight] = []
        self._last_flush_step = -1
        self.reductions = 0
        self.bytes_reduced = 0
        self.bound_waits = 0

    # -- the two-phase step API ----------------------------------------------

    def begin_step(self, step: int) -> List[int]:
        """Ranks that start a fresh gradient at this step: every rank
        whose previous gradient has folded (or been dropped).  Sorted,
        so callers compute in deterministic order."""
        return [r for r in range(self.size) if r not in self._in_flight]

    def complete_step(
        self, step: int, contribs: Dict[int, Tuple[float, np.ndarray]]
    ) -> Tuple[float, np.ndarray]:
        """Advance virtual time to this step's close and fold gradients.

        ``contribs`` maps each starter rank (from :meth:`begin_step`)
        to its freshly computed ``(loss, flat gradient)``.  Returns the
        folded ``(mean loss, mean flat gradient)`` over this step's
        contributions.
        """
        cfg = self.config
        t0 = self.now
        for r in sorted(contribs):
            loss, flat = contribs[r]
            delay = self.injector.hang_delay(r, step) if self.injector is not None else 0.0
            finish = t0 + cfg.base_step_time_s + delay
            self._in_flight[r] = _InFlight(r, step, t0, finish, loss, flat)

        close = self._close_time(step, t0)
        contributions: List[Tuple[int, _InFlight]] = []  # (staleness, message)
        decisions: List[Tuple[int, str]] = []
        while True:
            arrivals = sorted(
                (m for m in self._in_flight.values() if m.finish <= close),
                key=lambda m: (m.birth, m.rank),
            )
            for m in arrivals:
                del self._in_flight[m.rank]
                staleness = step - m.birth
                if self.monitor is not None:
                    verdict = self.monitor.observe(
                        m.rank, step, m.finish - m.start,
                        quarantined=m.rank in self.quarantined,
                    )
                    if verdict is not None:
                        decisions.append((m.rank, verdict))
                if m.rank in self.quarantined and staleness > cfg.staleness_bound:
                    # An async contributor's gradient past the bound is
                    # discarded rather than folded stale.
                    self.metrics.counter("stale.dropped").add()
                    continue
                if staleness > cfg.staleness_bound:
                    raise RuntimeError(
                        f"synchronous gradient of rank {m.rank} exceeded the "
                        f"staleness bound ({staleness} > {cfg.staleness_bound})"
                    )
                if self.mode == "sagn" and staleness > 0:
                    self._window_acc.append(m)
                else:
                    contributions.append((staleness, m))
            if self.mode == "sagn":
                contributions.extend(self._maybe_flush_window(step, force=not contributions))
            if contributions:
                break
            # Every arrival was dropped (or deferred into an empty
            # window): stall until the next in-flight gradient lands so
            # the step folds at least one contribution.
            if not self._in_flight:
                raise RuntimeError("stale group stalled with no gradients in flight")
            close = min(m.finish for m in self._in_flight.values())

        self._apply_decisions(step, decisions)

        contributions.sort(key=lambda sm: (sm[1].birth, sm[1].rank))
        metrics = self.metrics
        for staleness, m in contributions:
            metrics.histogram("stale.staleness").observe(staleness)
            metrics.counter(f"stale.rank{m.rank}.contributions").add()
            if staleness > 0:
                metrics.counter("stale.late_folds").add()
                if self.tracer.enabled:
                    self.tracer.instant(
                        "fold_in", cat="stale", track=m.rank,
                        step=step, birth=m.birth, staleness=staleness,
                    )

        flats = [m.flat for _, m in contributions]
        losses = [m.loss for _, m in contributions]
        avg = reduce_arrays(flats, ReduceOp.MEAN)
        self.reductions += 1
        self.bytes_reduced += avg.nbytes * len(flats)
        self.now = close
        metrics.histogram("stale.step_virtual_s").observe(close - t0)
        return float(np.mean(losses)), avg

    # -- internals -----------------------------------------------------------

    def _close_time(self, step: int, t0: float) -> float:
        """When this step's collective closes, per the quorum rule and
        the hard staleness bound."""
        cfg = self.config
        sync_msgs = [m for r, m in self._in_flight.items() if r in self.sync_ranks]
        close = t0
        if sync_msgs:
            finishes = sorted(m.finish for m in sync_msgs)
            q = cfg.resolve_quorum(len(sync_msgs))
            quorum_close = finishes[q - 1]
            close = max(close, quorum_close)
            due = [m for m in sync_msgs if step - m.birth >= cfg.staleness_bound]
            if due:
                bound_close = max(m.finish for m in due)
                if bound_close > close:
                    close = bound_close
                    self.bound_waits += 1
        elif self._in_flight:
            # Every contributor is quarantined: wait for the earliest
            # asynchronous arrival so the step is not gradient-free.
            close = max(close, min(m.finish for m in self._in_flight.values()))
        return close

    def _maybe_flush_window(self, step: int, force: bool) -> List[Tuple[int, _InFlight]]:
        """SAGN window flush: release accumulated late gradients when
        the window elapses, when the bound would otherwise be exceeded,
        or when the step has no direct contributions (``force``)."""
        if not self._window_acc:
            return []
        cfg = self.config
        oldest = min(m.birth for m in self._window_acc)
        if (
            force
            or step - oldest >= cfg.staleness_bound
            or step - self._last_flush_step >= cfg.window
        ):
            flushed = [(step - m.birth, m) for m in self._window_acc]
            self._window_acc = []
            self._last_flush_step = step
            return flushed
        return []

    def _apply_decisions(self, step: int, decisions: List[Tuple[int, str]]) -> None:
        for rank, verdict in decisions:
            if verdict == "quarantine" and rank in self.sync_ranks:
                self.sync_ranks.discard(rank)
                self.quarantined.add(rank)
                self.metrics.counter(f"stale.rank{rank}.quarantines").add()
                if self.tracer.enabled:
                    self.tracer.instant("quarantine", cat="stale", track=rank, step=step)
            elif verdict == "rehabilitate" and rank in self.quarantined:
                self.quarantined.discard(rank)
                self.sync_ranks.add(rank)
                self.metrics.counter(f"stale.rank{rank}.rehabs").add()
                if self.tracer.enabled:
                    self.tracer.instant("rehabilitate", cat="stale", track=rank, step=step)

    # -- reporting -----------------------------------------------------------

    @property
    def virtual_time_s(self) -> float:
        """Total simulated wall time consumed by the folded steps."""
        return self.now

    def stats(self) -> Dict[str, object]:
        """Run statistics (the backend publishes these as group stats).

        The event counts are read back from the ``stale.*`` instruments
        of :attr:`metrics`, their one store, so a group reports every
        step it has folded: ``StaleBackend`` builds one group a run.
        """
        m = self.metrics
        ranks = range(self.size)
        quarantines = [m.value(f"stale.rank{r}.quarantines", 0) for r in ranks]
        rehabs = [m.value(f"stale.rank{r}.rehabs", 0) for r in ranks]
        staleness = m.histogram("stale.staleness")
        out: Dict[str, object] = {
            "mode": self.mode,
            "staleness_bound": self.config.staleness_bound,
            "quorum_fraction": self.config.quorum_fraction,
            "window": self.config.window,
            "reductions": self.reductions,
            "bytes_reduced": self.bytes_reduced,
            "virtual_time_s": self.now,
            "max_staleness": int(staleness.max) if staleness.count else 0,
            "late_folds": m.value("stale.late_folds", 0),
            "dropped_stale": m.value("stale.dropped", 0),
            "bound_waits": self.bound_waits,
            "contributions": [m.value(f"stale.rank{r}.contributions", 0) for r in ranks],
            "quarantines": sum(quarantines),
            "rehabs": sum(rehabs),
            "quarantined_ranks": [r for r in ranks if quarantines[r]],
            "rehabilitated_ranks": [r for r in ranks if rehabs[r]],
        }
        if self.monitor is not None:
            out["latency_ewma_s"] = {r: self.monitor.ewma[r] for r in sorted(self.monitor.ewma)}
        return out
