"""The three-state circuit breaker the staging tier trips, one per
burst-buffer target.

It keeps no clock: every call is handed ``now``, so whoever owns the
(virtual) clock owns the transitions and a seed replays them exactly.
"""

from __future__ import annotations

import enum

__all__ = ["BreakerState", "CircuitBreaker"]


class BreakerState(enum.Enum):
    """Circuit-breaker states (the standard three-state machine)."""

    CLOSED = "closed"  # healthy: traffic flows to the hot tier
    OPEN = "open"  # tripped: all traffic falls back to the backing store
    HALF_OPEN = "half_open"  # cooling off: one probe read allowed through


class CircuitBreaker:
    """Per-target failure accounting with OPEN/HALF_OPEN/CLOSED states.

    Driven entirely by an external clock value (the staging manager's
    virtual clock), so transitions are deterministic under simulation.
    """

    def __init__(self, name: str, threshold: int = 3, reset_s: float = 30.0):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if reset_s < 0:
            raise ValueError("reset_s must be >= 0")
        self.name = name
        self.threshold = threshold
        self.reset_s = reset_s
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.trips = 0
        self.half_opens = 0

    def allow(self, now: float) -> bool:
        """Whether the hot tier may serve a request at time ``now``.

        An OPEN breaker past its cooldown transitions to HALF_OPEN and
        admits the request as the probe.
        """
        if self.state is BreakerState.OPEN:
            if now - self.opened_at >= self.reset_s:
                self.state = BreakerState.HALF_OPEN
                self.half_opens += 1
                return True
            return False
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = BreakerState.CLOSED

    def record_failure(self, now: float) -> None:
        """One failure; a HALF_OPEN probe failure re-trips immediately."""
        self.consecutive_failures += 1
        if (
            self.state is BreakerState.HALF_OPEN
            or self.consecutive_failures >= self.threshold
        ):
            if self.state is not BreakerState.OPEN:
                self.trips += 1
            self.state = BreakerState.OPEN
            self.opened_at = now
