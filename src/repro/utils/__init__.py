"""Shared utilities: seeded RNG helpers, stage timers, logging,
retry schedules, the circuit breaker, (``repro.utils.cores``) the one
helper thread a large call runs beside itself, and
(``repro.utils.checksum``) the one CRC-32 every checksum goes through.

These helpers are deliberately tiny and dependency-free; every other
subpackage may import them, and they import nothing from the rest of
:mod:`repro`.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy(__name__, {
    "rng": ("new_rng", "spawn_rngs", "derive_seed"),
    "timer": ("StageTimer", "Timer", "format_duration"),
    "logging": ("get_logger",),
    "retry": ("RetryPolicy", "call_with_retry"),
    "breaker": ("BreakerState", "CircuitBreaker"),
})
