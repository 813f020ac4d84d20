"""One registry for every number the system counts.

:class:`MetricsRegistry` is one namespace of named counters, gauges,
and histograms (``engine.steps``, ``engine.stage.io.seconds``,
``stale.late_folds``, ``serve.crashes``, ...).  Code that counts writes
its instruments directly, where the work happens, and a report reads
them back; nothing is copied in after the fact.  A rank group's
``group_stats`` and the staging tier's
:class:`~repro.io.staging.StagingStats` are reports of their own, not
folded in here.

All instruments are thread-safe (rank threads increment concurrently)
and deterministic: a counter's final value depends on what the run did,
never on scheduling, so seeded runs produce identical snapshots — the
property the cross-backend metrics-consistency tests pin.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Mapping

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonic accumulator (events, records, bytes)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self._value = 0

    @property
    def value(self):
        return self._value

    def add(self, n=1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (add {n})")
        with self._lock:
            self._value += n


class Gauge:
    """Last-write-wins value (queue depth, breaker state, LR)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self._value = 0.0

    @property
    def value(self):
        return self._value

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    def add(self, delta) -> None:
        with self._lock:
            self._value += delta


class Histogram:
    """Summary of an observed distribution with quantile extraction.

    Keeps count/sum/min/max plus the raw samples, so arbitrary
    quantiles — the serving tier's p50/p99 latency reporting — are
    exact rather than bucket-approximated.  Sample storage is bounded
    by the number of observations; the instruments here observe per
    step / per request, so a run's histograms stay small (thousands of
    floats, not billions).
    """

    __slots__ = ("name", "_lock", "count", "total", "min", "max", "_samples")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list = []

    def observe(self, value) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self._samples.append(value)
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile of everything observed so far.

        Linear interpolation between order statistics (numpy's default
        convention), so ``quantile(0.5)`` of ``[1, 2]`` is 1.5.  An
        empty histogram reports 0.0 — quantiles of nothing are a
        reporting concern, not an error — and a single sample is every
        quantile of itself.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if not self._samples:
                return 0.0
            ordered = sorted(self._samples)
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {
                "count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p99": 0.0,
            }
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named counters/gauges/histograms behind one read API.

    Instruments are created on first use (``registry.counter("x")``)
    and live for the registry's lifetime.  A name is bound to exactly
    one instrument kind — asking for ``counter("x")`` after
    ``gauge("x")`` is a bug and raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, cls):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name, threading.Lock())
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} is a {type(inst).__name__}, not a {cls.__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    # -- reading -----------------------------------------------------------

    def names(self):
        with self._lock:
            return sorted(self._instruments)

    def value(self, name: str, default=None):
        """The scalar value of a counter/gauge (histograms: the mean)."""
        with self._lock:
            inst = self._instruments.get(name)
        if inst is None:
            return default
        return inst.mean if isinstance(inst, Histogram) else inst.value

    def snapshot(self) -> Dict[str, Any]:
        """Every instrument as plain data, sorted by name."""
        with self._lock:
            instruments = dict(self._instruments)
        out: Dict[str, Any] = {}
        for name in sorted(instruments):
            inst = instruments[name]
            out[name] = inst.summary() if isinstance(inst, Histogram) else inst.value
        return out

    def dump(self) -> Dict[str, Dict[str, Any]]:
        """Every instrument as a kind-tagged, JSON-able record.

        Unlike :meth:`snapshot` (a reporting view), a dump is lossless
        for merging: histograms carry their raw samples, so a registry
        rebuilt via :meth:`merge` answers ``quantile()`` exactly as the
        original would.  This is the wire format per-rank worker
        processes ship their metrics home in.
        """
        with self._lock:
            instruments = dict(self._instruments)
        out: Dict[str, Dict[str, Any]] = {}
        for name in sorted(instruments):
            inst = instruments[name]
            if isinstance(inst, Counter):
                out[name] = {"kind": "counter", "value": inst.value}
            elif isinstance(inst, Gauge):
                out[name] = {"kind": "gauge", "value": inst.value}
            else:
                with inst._lock:
                    samples = list(inst._samples)
                out[name] = {"kind": "histogram", "samples": samples}
        return out

    def merge(self, dump: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold one :meth:`dump` into this registry, additively.

        Counters add, gauges add (every gauge in the engine's namespace
        is an accumulated total — stage seconds — so addition is the
        semantics that makes N child registries equal one shared
        registry), and histograms re-observe
        the child's raw samples, keeping quantiles exact after the
        merge.  A name bound to a different instrument kind here raises
        ``TypeError`` (same rule as first use).
        """
        for name, rec in dump.items():
            kind = rec.get("kind")
            if kind == "counter":
                self.counter(name).add(rec["value"])
            elif kind == "gauge":
                self.gauge(name).add(rec["value"])
            elif kind == "histogram":
                hist = self.histogram(name)
                for sample in rec["samples"]:
                    hist.observe(sample)
            else:
                raise ValueError(f"unknown instrument kind {kind!r} for {name!r}")

    def report(self, title: str = "metrics") -> str:
        """Human-readable dump, one instrument per line."""
        lines = [title]
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                value = (
                    f"n={value['count']} mean={value['mean']:.6g} "
                    f"min={value['min']:.6g} max={value['max']:.6g} "
                    f"p50={value['p50']:.6g} p99={value['p99']:.6g}"
                )
            lines.append(f"  {name} = {value}")
        return "\n".join(lines)
