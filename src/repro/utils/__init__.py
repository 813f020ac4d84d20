"""Shared utilities: seeded RNG helpers, stage timers, logging,
retry schedules, the circuit breaker, (``repro.utils.cores``) the one
helper thread a large call runs beside itself, and
(``repro.utils.checksum``) the one CRC-32 every checksum goes through.

These helpers are deliberately tiny and dependency-free; every other
subpackage may import them, and they import nothing from the rest of
:mod:`repro`.
"""

from repro.utils.rng import new_rng, spawn_rngs, derive_seed
from repro.utils.timer import StageTimer, Timer, format_duration
from repro.utils.logging import get_logger
from repro.utils.retry import RetryPolicy, call_with_retry
from repro.utils.breaker import BreakerState, CircuitBreaker

__all__ = [
    "new_rng",
    "spawn_rngs",
    "derive_seed",
    "StageTimer",
    "Timer",
    "format_duration",
    "get_logger",
    "RetryPolicy",
    "call_with_retry",
    "BreakerState",
    "CircuitBreaker",
]
