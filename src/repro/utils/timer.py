"""A wall-clock timer and a duration formatter.

Training-loop stage time (the paper's Figure 3) is not kept here: the
engine writes each stage window straight into the run's metrics
registry (``engine.stage.<s>.seconds``, :mod:`repro.obs`).
"""

from __future__ import annotations

import time

__all__ = ["Timer", "format_duration"]


def format_duration(seconds: float) -> str:
    """Render a duration with a unit a human can read at a glance."""
    if seconds < 0:
        return f"-{format_duration(-seconds)}"
    if seconds < 1e-6:
        return f"{seconds * 1e9:.1f} ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    if seconds < 120.0:
        return f"{seconds:.2f} s"
    return f"{seconds / 60.0:.1f} min"


class Timer:
    """Simple start/stop timer usable as a context manager."""

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed += time.perf_counter() - self._start
        self._start = None
        return self.elapsed

    def reset(self) -> None:
        self._start = None
        self.elapsed = 0.0
