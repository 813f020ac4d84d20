"""The calibration tick: a fixed kernel that measures how fast the host is *now*.

The benchmark host changes speed between (and within) runs, and CPU time
inflates with it, so neither wall nor CPU time of an operation repeats.
What repeats is the ratio of an operation's time to the time of a fixed
kernel run right next to it.  :class:`Ticker` interleaves that kernel with
the measured operations; :mod:`bench.measure` divides one by the other.

FROZEN: the kernel below defines, with the constants in :mod:`bench.frozen`,
the unit every recorded number is expressed in.  It is never edited after the
PR that added it.
"""

from __future__ import annotations

import threading
import time
from typing import List

import numpy as np

from bench.frozen import TICK_SHARE

__all__ = ["Ticker"]

_MATMULS = 12
_MATMUL_N = 160
_LOOP_ITERS = 20_000
_STREAMS = 6
_STREAM_FLOATS = 2 * 1024 * 1024 // 4  # 2 MB of fp32


class Ticker:
    """Runs calibration ticks and keeps every tick's duration.

    One tick mixes the three things the workloads spend time on: BLAS
    (12 small SGEMMs), interpreter dispatch (an integer loop) and memory
    streaming (6 passes over 2 MB).
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((_MATMUL_N, _MATMUL_N)).astype(np.float32)
        self._b = rng.standard_normal((_MATMUL_N, _MATMUL_N)).astype(np.float32)
        self._c = np.empty_like(self._a)
        self._src = rng.standard_normal(_STREAM_FLOATS).astype(np.float32)
        self._dst = np.empty_like(self._src)
        self.ticks_s: List[float] = []
        self.total_s = 0.0

    def tick(self) -> float:
        """Run the kernel once; returns (and records) its wall time."""
        # A program thread running during a tick would make the host look
        # slow and credit the program for it.
        if threading.active_count() != 1:
            raise RuntimeError(
                f"calibration tick with {threading.active_count()} threads alive; "
                "gated workloads must be single-threaded"
            )
        t0 = time.perf_counter()
        for _ in range(_MATMULS):
            np.matmul(self._a, self._b, out=self._c)
        acc = 0
        for i in range(_LOOP_ITERS):
            acc += i & 7
        for _ in range(_STREAMS):
            np.multiply(self._src, 1.0001, out=self._dst)
        dt = time.perf_counter() - t0
        self.ticks_s.append(dt)
        self.total_s += dt
        return dt

    def top_up(self, busy_s: float, base_s: float = 0.0) -> None:
        """Tick until the tick time since ``base_s`` (an earlier ``total_s``)
        is at least ``TICK_SHARE`` of ``busy_s``."""
        while self.total_s - base_s < TICK_SHARE * busy_s:
            self.tick()

    def burst(self, n: int) -> None:
        """``n`` ticks back to back (between set-up phases)."""
        for _ in range(n):
            self.tick()
