"""Structured tracing: spans and instants with a Chrome trace exporter.

The paper's single-node profile (Figure 3) and scaling analysis
(Section V) rest on attributing every microsecond of step time to a
stage.  :class:`Tracer` is the recording half of that attribution: code
wraps regions in spans (``with tracer.span("allreduce", ...)``) or
reports externally timed durations (:meth:`Tracer.complete`), and marks
discrete incidents — an eviction, a restart, a hedged read — as instant
events.  Every event carries a name, a category, a track (rank or
subsystem), a monotonically increasing per-track sequence number, a
wall-clock timestamp, and optional structured args (step, epoch, bytes,
a virtual timestamp...).

Two consumers matter:

* :meth:`Tracer.export` writes the Chrome trace-event JSON format, so
  any run opens directly in ``chrome://tracing`` or Perfetto with one
  timeline track per rank plus named subsystem tracks;
* :meth:`Tracer.sequence` returns the wall-clock-free event sequence —
  per-track ``(track, name, step)`` tuples in deterministic order —
  which is what the golden-trace tests pin: the same seed and fault
  plan must replay the same sequence even though wall timestamps never
  repeat.

Tracing must cost nothing when disabled: :data:`NULL_TRACER` (a
:class:`NullTracer`) is the default everywhere, its hooks are no-ops,
and its ``span`` returns a shared, reusable null context manager.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = ["TraceEvent", "Tracer", "NullTracer", "NULL_TRACER"]

#: A track is a timeline row: an integer rank or a named subsystem
#: ("driver", "staging", ...).
Track = Union[int, str]


@dataclass
class TraceEvent:
    """One recorded event.

    ``ph`` follows the Chrome trace-event phase codes: ``"X"`` for a
    complete span (has ``dur_s``), ``"i"`` for an instant.  ``ts_s`` is
    seconds since the tracer's epoch (wall clock); ``seq`` orders events
    within a track deterministically — it never depends on wall time.
    """

    name: str
    cat: str
    ph: str
    track: Track
    seq: int
    ts_s: float
    dur_s: float = 0.0
    args: Dict[str, Any] = field(default_factory=dict)


class _Span:
    """Context manager recording one span on exit (even on error)."""

    __slots__ = ("_tracer", "_name", "_cat", "_track", "_args", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, track: Track, args):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._track = track
        self._args = args

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t0 = self._t0
        self._tracer.complete(
            self._name,
            t0,
            time.perf_counter() - t0,
            cat=self._cat,
            track=self._track,
            **self._args,
        )


class Tracer:
    """Thread-safe recorder of structured trace events.

    Rank threads append concurrently; a lock serializes the buffer and
    the per-track sequence counters.  Wall timestamps are relative to
    the tracer's construction (``perf_counter`` epoch), so exported
    traces start near t=0.
    """

    enabled = True

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._lock = threading.Lock()
        self._seq: Dict[Track, int] = {}
        self._epoch = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def span(self, name: str, cat: str = "trace", track: Track = 0, **args) -> _Span:
        """Context manager recording a span around the enclosed block."""
        return _Span(self, name, cat, track, args)

    def complete(
        self,
        name: str,
        t0: float,
        dur_s: float,
        cat: str = "trace",
        track: Track = 0,
        **args,
    ) -> None:
        """Record an externally timed span.

        ``t0`` is a ``time.perf_counter()`` reading; passing the exact
        duration written to a metrics registry keeps trace totals and
        stage accounting identical.
        """
        self._append(TraceEvent(name, cat, "X", track, 0, t0 - self._epoch, dur_s, args))

    def instant(self, name: str, cat: str = "trace", track: Track = 0, **args) -> None:
        """Record a discrete incident (eviction, restart, hedge, ...)."""
        self._append(
            TraceEvent(name, cat, "i", track, 0, time.perf_counter() - self._epoch, 0.0, args)
        )

    def _append(self, event: TraceEvent) -> None:
        with self._lock:
            seq = self._seq.get(event.track, 0)
            self._seq[event.track] = seq + 1
            event.seq = seq
            self.events.append(event)

    # -- reading -----------------------------------------------------------

    @staticmethod
    def _track_key(track: Track) -> Tuple[int, Union[int, str]]:
        """Deterministic track order: integer ranks first, then names."""
        return (0, track) if isinstance(track, int) else (1, str(track))

    def ordered(self) -> List[TraceEvent]:
        """Events sorted by (track, per-track sequence) — an order that
        depends only on what happened, never on wall-clock interleaving."""
        with self._lock:
            events = list(self.events)
        return sorted(events, key=lambda e: (self._track_key(e.track), e.seq))

    def sequence(self) -> List[Tuple[Track, str, Optional[int]]]:
        """The wall-clock-free event sequence the golden tests compare:
        ``(track, name, step)`` per event in :meth:`ordered` order."""
        return [(e.track, e.name, e.args.get("step")) for e in self.ordered()]

    def clear(self) -> None:
        with self._lock:
            self.events.clear()
            self._seq.clear()

    # -- cross-process merge ------------------------------------------------

    def dump(self) -> List[Dict[str, Any]]:
        """Raw events as JSON-able dicts (the per-rank wire format).

        Unlike :meth:`to_chrome` this is lossless: a tracer rebuilt by
        :meth:`absorb` reports the same :meth:`ordered` and
        :meth:`sequence` as the original, which is what lets a parent
        process merge worker-process traces and still pass the golden
        sequence comparisons.
        """
        with self._lock:
            events = list(self.events)
        return [
            {
                "name": e.name, "cat": e.cat, "ph": e.ph, "track": e.track,
                "seq": e.seq, "ts_s": e.ts_s, "dur_s": e.dur_s, "args": e.args,
            }
            for e in events
        ]

    def absorb(self, dumped: List[Dict[str, Any]]) -> int:
        """Import events written by another tracer's :meth:`dump`.

        Recorded per-track sequence numbers are preserved (they encode
        the child's deterministic event order); this tracer's own
        counters jump past them so later local appends never collide.
        Worker-process ranks occupy disjoint integer tracks, so merging
        N rank dumps plus the parent's driver track yields one coherent
        timeline.  Returns the number of events imported.
        """
        with self._lock:
            for rec in dumped:
                event = TraceEvent(
                    rec["name"], rec["cat"], rec["ph"], rec["track"],
                    int(rec["seq"]), float(rec["ts_s"]), float(rec.get("dur_s", 0.0)),
                    dict(rec.get("args", {})),
                )
                self.events.append(event)
                nxt = self._seq.get(event.track, 0)
                if event.seq >= nxt:
                    self._seq[event.track] = event.seq + 1
        return len(dumped)

    # -- export ------------------------------------------------------------

    def to_chrome(self) -> Dict[str, Any]:
        """The trace as a Chrome trace-event JSON object.

        One ``tid`` per track (ranks keep their rank number; named
        subsystem tracks get tids after the last rank), labeled with
        ``thread_name`` metadata so Perfetto shows "rank 0", "staging",
        etc.  Timestamps are microseconds, as the format requires.
        """
        ordered = self.ordered()
        tracks = sorted({e.track for e in ordered}, key=self._track_key)
        ranks = [t for t in tracks if isinstance(t, int)]
        next_tid = (max(ranks) + 1) if ranks else 0
        tids: Dict[Track, int] = {}
        for t in tracks:
            if isinstance(t, int):
                tids[t] = t
            else:
                tids[t] = next_tid
                next_tid += 1
        events: List[Dict[str, Any]] = []
        for track in tracks:
            label = f"rank {track}" if isinstance(track, int) else str(track)
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tids[track],
                    "args": {"name": label},
                }
            )
        for e in ordered:
            rec: Dict[str, Any] = {
                "name": e.name,
                "cat": e.cat,
                "ph": e.ph,
                "pid": 0,
                "tid": tids[e.track],
                "ts": e.ts_s * 1e6,
                "args": {"seq": e.seq, **e.args},
            }
            if e.ph == "X":
                rec["dur"] = e.dur_s * 1e6
            else:
                rec["s"] = "t"  # instant scoped to its thread/track
            events.append(rec)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export(self, path) -> Path:
        """Write the Chrome trace JSON; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome()))
        return path


class _NullSpan:
    """Reusable do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """The zero-cost disabled tracer: every hook is a no-op.

    Production code consults a tracer unconditionally; with this default
    the only cost per call site is one method dispatch, so runs without
    ``--trace`` stay bit- and budget-identical to pre-tracing builds.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def span(self, name, cat="trace", track=0, **args):
        return _NULL_SPAN

    def complete(self, name, t0, dur_s, cat="trace", track=0, **args) -> None:
        return None

    def instant(self, name, cat="trace", track=0, **args) -> None:
        return None


#: Shared disabled tracer — the default everywhere a tracer is accepted.
NULL_TRACER = NullTracer()
