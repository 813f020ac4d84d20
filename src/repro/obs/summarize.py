"""Figure-3-style stage breakdown from an exported trace file.

``repro trace summarize out.json`` reads a Chrome trace-event JSON
written by :meth:`~repro.obs.tracer.Tracer.export` and rebuilds the
paper's single-node profile: per-stage wall time, step counts, and
fractions, overall and per rank track.  Because the engine emits each
stage span with the *same* duration it adds to the run's
``engine.stage.<s>.seconds``, the table's totals agree with the
registry's stage accounting exactly (up to the µs float round-trip of
the JSON format).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from repro.utils.timer import format_duration

__all__ = ["TraceSummary", "load_trace", "summarize_trace", "format_summary"]

#: Engine stages printed first, in pipeline order; anything else follows.
_STAGE_ORDER = ("io", "compute", "comm", "optimizer", "other")


@dataclass
class _Agg:
    total_s: float = 0.0
    count: int = 0


@dataclass
class TraceSummary:
    """Aggregated view of one trace file."""

    #: stage name -> (total seconds, span count), engine-category spans.
    stages: Dict[str, _Agg] = field(default_factory=dict)
    #: track label -> stage name -> aggregate.
    per_track: Dict[str, Dict[str, _Agg]] = field(default_factory=dict)
    #: span name -> aggregate for comm-category spans (allreduce, ...).
    comm: Dict[str, _Agg] = field(default_factory=dict)
    #: instant-event name -> occurrence count (restarts, hedges, ...).
    instants: Dict[str, int] = field(default_factory=dict)
    #: track label -> instant name -> count.  Tracks may be
    #: *instant-only* (no duration spans at all) — the serving tier's
    #: admit/shed/redrain decision stream is exactly that — so instants
    #: keep their track attribution instead of collapsing into the
    #: global counts.
    per_track_instants: Dict[str, Dict[str, int]] = field(default_factory=dict)
    n_events: int = 0

    def stage_total_s(self, name: str) -> float:
        agg = self.stages.get(name)
        return agg.total_s if agg else 0.0

    def total_s(self) -> float:
        return sum(a.total_s for a in self.stages.values())

    def tracks(self) -> List[str]:
        """Every track seen, whether it recorded spans, instants, or
        both — never assume a track has durations."""
        return sorted(set(self.per_track) | set(self.per_track_instants))


def load_trace(path) -> List[Dict[str, Any]]:
    """The trace's event list (accepts the object or bare-array form)."""
    data = json.loads(Path(path).read_text())
    events = data["traceEvents"] if isinstance(data, dict) else data
    if not isinstance(events, list):
        raise ValueError(f"{path} is not a Chrome trace-event file")
    return events


def summarize_trace(events: List[Dict[str, Any]]) -> TraceSummary:
    """Aggregate a trace's events into a :class:`TraceSummary`."""
    names: Dict[int, str] = {}
    for e in events:
        if e.get("ph") == "M" and e.get("name") == "thread_name":
            names[e.get("tid", 0)] = e.get("args", {}).get("name", str(e.get("tid")))
    summary = TraceSummary()
    for e in events:
        ph = e.get("ph")
        if ph == "M":
            continue
        summary.n_events += 1
        name = e.get("name", "?")
        if ph == "i":
            summary.instants[name] = summary.instants.get(name, 0) + 1
            track = names.get(e.get("tid", 0), str(e.get("tid", 0)))
            per = summary.per_track_instants.setdefault(track, {})
            per[name] = per.get(name, 0) + 1
            continue
        if ph != "X":
            continue
        dur_s = float(e.get("dur", 0.0)) / 1e6
        cat = e.get("cat", "")
        if cat == "comm":
            agg = summary.comm.setdefault(name, _Agg())
        else:
            agg = summary.stages.setdefault(name, _Agg())
            track = names.get(e.get("tid", 0), str(e.get("tid", 0)))
            tagg = summary.per_track.setdefault(track, {}).setdefault(name, _Agg())
            tagg.total_s += dur_s
            tagg.count += 1
        agg.total_s += dur_s
        agg.count += 1
    return summary


def _stage_rows(stages: Dict[str, _Agg]) -> List[str]:
    ordered = [s for s in _STAGE_ORDER if s in stages]
    ordered += sorted(s for s in stages if s not in _STAGE_ORDER)
    total = sum(a.total_s for a in stages.values()) or 1.0
    width = max((len(s) for s in ordered), default=8)
    rows = []
    for name in ordered:
        agg = stages[name]
        rows.append(
            f"  {name:<{width}}  {format_duration(agg.total_s):>10}"
            f"  {agg.total_s / total * 100:5.1f}%  (n={agg.count})"
        )
    return rows


def _instant_rows(instants: Dict[str, int]) -> List[str]:
    return [f"  {name}: {instants[name]}" for name in sorted(instants)]


def format_summary(summary: TraceSummary, per_rank: bool = True) -> str:
    """Render the Figure-3-style breakdown table.

    A track may carry duration spans, instant events, or both —
    instant-only tracks (the serving tier's decision stream, the
    staging tier's event log) render their per-track event counts
    instead of an empty stage table.
    """
    lines = ["stage breakdown (all ranks)"]
    if summary.stages:
        lines += _stage_rows(summary.stages)
        lines.append(f"  {'total':<8}  {format_duration(summary.total_s()):>10}")
    else:
        lines.append("  (no engine stage spans in trace)")
    tracks = summary.tracks()
    if per_rank and len(tracks) > 1:
        for track in tracks:
            lines.append(f"track: {track}")
            stages = summary.per_track.get(track)
            if stages:
                lines += _stage_rows(stages)
            instants = summary.per_track_instants.get(track)
            if instants:
                lines += _instant_rows(instants)
            if not stages and not instants:  # pragma: no cover - defensive
                lines.append("  (no events)")
    if summary.comm:
        lines.append("comm spans")
        lines += _stage_rows(summary.comm)
    if summary.instants:
        lines.append("events")
        lines += _instant_rows(summary.instants)
    return "\n".join(lines)
