"""Bounded retry schedules: exponential backoff, optionally jittered.

The staging tier retries a failed stage-in on a :class:`RetryPolicy`
schedule: a fixed number of attempts, exponentially spaced, then the
copy degrades to backing-store reads.  Deterministic by design — the
bare schedule has no jitter, and :func:`jittered_delay` only randomizes
when handed a *seeded* generator — so fault-injection tests see
identical schedules every run.

:func:`jittered_delay` is the one place backoff jitter lives (one
draw per call, in call order), so a seed reproduces every backoff.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy", "jittered_delay"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry and how long to back off.

    ``delay(attempt)`` for attempt 0, 1, 2, ... is
    ``base_delay_s * multiplier**attempt``, capped at ``max_delay_s``.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.01
    multiplier: float = 2.0
    max_delay_s: float = 1.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt + 1``."""
        return min(self.base_delay_s * self.multiplier**attempt, self.max_delay_s)


def jittered_delay(
    policy: RetryPolicy,
    attempt: int,
    jitter: float = 0.0,
    rng=None,
) -> float:
    """The backoff before retry ``attempt + 1`` with multiplicative jitter.

    ``jitter`` is the +/- fraction applied to the exponential schedule:
    the returned delay is ``policy.delay(attempt) * (1 + jitter * u)``
    with ``u ~ Uniform(-1, 1)`` drawn from ``rng``.  With ``jitter == 0``
    or no generator the bare deterministic schedule comes back, so call
    sites can thread the knob through unconditionally.

    Passing a *seeded* :class:`numpy.random.Generator` keeps the jitter
    reproducible: the same seed yields the same spread of delays (one
    draw per call, in call order), which is what lets the staging tier's
    decision logs — and the A8/A9 fault benchmarks built on them —
    replay bitwise.
    """
    if not 0.0 <= jitter <= 1.0:
        raise ValueError("jitter must be in [0, 1]")
    delay = policy.delay(attempt)
    if jitter and rng is not None:
        delay *= 1.0 + jitter * float(rng.uniform(-1.0, 1.0))
    return delay
