"""Harness math: operation clocks and speed-corrected statistics.

Every gated time is divided by how slow the host was while it was taken,
read from the calibration ticks interleaved with the operations.  The
statistic of the ticks must match the statistic of the operations: a mean is
corrected by the mean tick and a median by the median tick.  Mixed pairs and
tail percentiles did not repeat when the benchmark was sized (11-45 % between
runs of identical code), which is why no tail is a gated metric.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Dict, List, Sequence

from bench.frozen import TICK_REF_MS
from bench.tick import Ticker

__all__ = [
    "WARMUP_OPS",
    "OpClock",
    "corrected_stats",
    "slowdown",
    "percentile",
    "peak_rss_mb",
]

#: Untimed operations before the window; ``gc.collect()`` follows them.
WARMUP_OPS = 5


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) without NumPy."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty series")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def slowdown(ticks_s: Sequence[float]) -> float:
    """How many times slower than the reference the host ran these ticks
    (by their mean): throughput is multiplied by it, times are divided by it."""
    return statistics.fmean(ticks_s) * 1e3 / TICK_REF_MS


def corrected_stats(
    op_wall_s: Sequence[float], op_cpu_s: Sequence[float], ticks_s: Sequence[float]
) -> Dict[str, float]:
    """Raw and speed-corrected statistics of one timed window."""
    if not op_wall_s or not ticks_s:
        raise ValueError("need at least one operation and one tick")
    n = len(op_wall_s)
    slow_mean = slowdown(ticks_s)
    slow_median = statistics.median(ticks_s) * 1e3 / TICK_REF_MS
    raw_ops_per_s = n / sum(op_wall_s)
    raw_p50_ms = statistics.median(op_wall_s) * 1e3
    return {
        "ops_per_s": raw_ops_per_s * slow_mean,
        "op_ms_p50": raw_p50_ms / slow_median,
        "cpu_ms_per_op": sum(op_cpu_s) / n * 1e3 / slow_mean,
        "op_ms_mean": 1e3 / raw_ops_per_s / slow_mean,
        "raw.ops_per_s": raw_ops_per_s,
        "raw.op_ms_p50": raw_p50_ms,
        "raw.op_ms_p95": percentile(op_wall_s, 95.0) * 1e3,
        "host.tick_ms_mean": slow_mean * TICK_REF_MS,
        "host.speed_factor": 1.0 / slow_mean,
    }


class OpClock:
    """Times consecutive operations and runs the ticks between them.

    Call :meth:`lap` when an operation ends: everything since the previous
    lap (or :meth:`start`) is that operation.  The first ``WARMUP_OPS`` laps
    are discarded; the window opens after a ``gc.collect()`` on the last one.
    Ticks run inside :meth:`lap`, after the stamp, so they are in no
    operation's time.
    """

    def __init__(self, ticker: Ticker):
        self.ticker = ticker
        self.op_wall_s: List[float] = []
        self.op_cpu_s: List[float] = []
        self.window_open_monotonic = 0.0
        self._laps = 0
        self._busy_s = 0.0
        self._ticks_before = 0
        self._tick_s_before = 0.0
        self.start()

    def start(self) -> None:
        self._t = time.perf_counter()
        self._cpu = time.process_time()

    @property
    def setup_ticks_s(self) -> List[float]:
        """Ticks taken before the timed window opened."""
        return self.ticker.ticks_s[: self._ticks_before]

    @property
    def window_ticks_s(self) -> List[float]:
        """Ticks taken inside the timed window (set-up ticks excluded)."""
        return self.ticker.ticks_s[self._ticks_before:]

    def lap(self) -> None:
        wall = time.perf_counter() - self._t
        cpu = time.process_time() - self._cpu
        self._laps += 1
        if self._laps <= WARMUP_OPS:
            if self._laps == WARMUP_OPS:
                gc.collect()
                self._ticks_before = len(self.ticker.ticks_s)
                self._tick_s_before = self.ticker.total_s
                self.window_open_monotonic = time.monotonic()
        else:
            self.op_wall_s.append(wall)
            self.op_cpu_s.append(cpu)
            self._busy_s += wall
            self.ticker.top_up(self._busy_s, self._tick_s_before)
        self.start()

    def stats(self) -> Dict[str, float]:
        return corrected_stats(self.op_wall_s, self.op_cpu_s, self.window_ticks_s)

