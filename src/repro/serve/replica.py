"""One serving replica: a model instance on a modeled node.

A replica's service time is analytical — forward-pass flops over the
node's sustained flop rate, plus a fixed per-batch dispatch overhead
(:data:`OVERHEAD_S`) — with the node's lognormal compute jitter sampled
from a seeded RNG, so latencies are realistic *and* replayable.  Health
is a small state machine (``WARMING → IDLE ⇄ BUSY``, terminally
``DEAD``); the pool owns the transitions, the replica owns the
arithmetic.
"""

from __future__ import annotations

from enum import Enum
from repro.core import flops as flops_mod
from repro.perfmodel.node import NodeSpec
from repro.utils.breaker import CircuitBreaker

__all__ = ["ReplicaState", "Replica"]

#: Fixed per-batch dispatch cost, seconds.
OVERHEAD_S = 0.002
#: Replica boot / spare promotion cost, seconds.
WARMUP_S = 0.05
#: Consecutive failures that trip a replica's breaker OPEN, and the
#: cooldown before its HALF_OPEN probe.
BREAKER_THRESHOLD = 3
BREAKER_RESET_S = 1.0


class ReplicaState(Enum):
    WARMING = "warming"  # loading weights; not yet dispatchable
    IDLE = "idle"
    BUSY = "busy"  # exactly one batch in flight (replicas are serial)
    DEAD = "dead"  # crashed; never returns (a spare replaces it)


class Replica:
    """A single model server in the pool.

    ``breaker`` is the per-replica circuit breaker: repeated failures
    trip it OPEN and the dispatcher routes around the replica until the
    cooldown's HALF_OPEN probe succeeds.
    """

    def __init__(self, rid: int, model, node: NodeSpec):
        self.rid = rid
        self.model = model
        self.node = node
        self.breaker = CircuitBreaker(
            f"replica-{rid}", threshold=BREAKER_THRESHOLD, reset_s=BREAKER_RESET_S
        )
        self.state = ReplicaState.WARMING
        self.ready_at_s = 0.0
        self.batches_served = 0
        self.busy_s = 0.0  # total modeled service time accumulated
        self._fwd_flops = flops_mod.total_flops(model.config)["fwd"]

    @property
    def name(self) -> str:
        return f"r{self.rid}"

    @property
    def alive(self) -> bool:
        return self.state is not ReplicaState.DEAD

    @property
    def fwd_flops_per_sample(self) -> float:
        return self._fwd_flops

    def nominal_service_s(self, n_samples: int = 1) -> float:
        """Jitter-free service time — the admission controller's
        feasibility estimates use this so estimates never consume RNG
        draws (which would couple shedding decisions to sampling
        order)."""
        return OVERHEAD_S + self.node.step_compute_time(
            self._fwd_flops, batch_size=n_samples
        )

    def service_time(self, n_samples: int, rng) -> float:
        """One jittered service-time draw for a batch of ``n_samples``."""
        return OVERHEAD_S + self.node.sample_compute_time(
            self._fwd_flops, rng=rng, batch_size=n_samples
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Replica({self.name}, {self.state.value})"
