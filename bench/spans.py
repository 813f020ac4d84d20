"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files, around the calls into each
layer's public functions; nothing inside ``src/repro`` is instrumented.  They
are kept in memory and written out when the traced run ends.  A span is
``{name, start, end, parent, op}``: ``parent`` is the index of the enclosing
span (``-1`` for a root) and ``op`` numbers the operation the span belongs to.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence

__all__ = ["Span", "SpanRecorder", "NullRecorder", "self_times", "inclusive_times", "uncovered_share"]

#: One span as stored: ``[name, start_s, end_s, parent_index, op_id]``.
Span = list


class _SpanContext:
    __slots__ = ("_rec",)

    def __init__(self, rec: "SpanRecorder"):
        self._rec = rec

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        rec = self._rec
        rec.spans[rec._stack.pop()][2] = time.perf_counter()


class SpanRecorder:
    """Records nested spans of the operation named by :attr:`op`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = 0
        self._stack: List[int] = []
        self._ctx = _SpanContext(self)

    def span(self, name: str) -> _SpanContext:
        stack = self._stack
        self.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
        stack.append(len(self.spans) - 1)
        # Stamp last, so the bookkeeping above is in the parent's self time.
        self.spans[-1][1] = time.perf_counter()
        return self._ctx

    def write(self, path, **header) -> Path:
        """Write the spans (plus ``header`` fields) as one JSON document."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header)
        doc["spans"] = [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]
        path.write_text(json.dumps(doc))
        return path


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


class NullRecorder:
    """Same interface, records nothing: the untraced hand-driven run."""

    op = 0
    #: ``None`` (not an empty list) marks "tracing is off" for callers that
    #: install extra hooks only when spans are kept.
    spans = None
    _ctx = _NullContext()

    def span(self, name: str) -> _NullContext:
        return self._ctx


def inclusive_times(spans: Sequence[Span], min_op: int = 0) -> Dict[str, float]:
    """Total duration per span name, children included.

    Spans of operations numbered below ``min_op`` (the warm-up) are left out.
    """
    out: Dict[str, float] = defaultdict(float)
    for name, start, end, _parent, op in spans:
        if op >= min_op:
            out[name] += end - start
    return dict(out)


def _own_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the part its child spans cover."""
    own = [end - start for _n, start, end, _p, _o in spans]
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_times(spans: Sequence[Span], min_op: int = 0) -> Dict[str, float]:
    """Total self time per span name: duration minus the children's."""
    out: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, _own_times(spans)):
        if span[4] >= min_op:
            out[span[0]] += own
    return dict(out)


def uncovered_share(spans: Sequence[Span], min_op: int = 0) -> float:
    """Share of the root spans' time that no child span covers."""
    total = uncovered = 0.0
    for span, own in zip(spans, _own_times(spans)):
        if span[3] < 0 and span[4] >= min_op:
            total += span[2] - span[1]
            uncovered += own
    return uncovered / total if total > 0 else 0.0
