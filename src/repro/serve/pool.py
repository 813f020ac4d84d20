"""Replica pool: membership, health, crash handling, warm spares.

The pool tracks which replicas can take work *right now* (alive and
idle) and owns the crash path: a dead replica leaves the
rotation permanently and, when a spare remains, hands its slot to the
next cold standby.  Spares are "warm" in the elastic-trainer sense —
provisioned but not serving — so promotion costs one warmup (weight
load) rather than a full cold boot.

The pool deliberately knows nothing about queues, deadlines, or the
event loop; the :class:`~repro.serve.server.InferenceServer` drives it
and timestamps every transition on the virtual clock.
"""

from __future__ import annotations

from typing import List, Optional

from repro.serve.replica import Replica, ReplicaState

__all__ = ["ReplicaPool"]


class ReplicaPool:
    """The serving tier's replica membership.

    ``replicas`` are the primaries (booting in ``WARMING``); ``spares``
    are cold standbys promoted one-for-one as primaries die.  Replica
    ids stay unique across promotions so traces and decision logs read
    unambiguously.
    """

    def __init__(self, replicas: List[Replica], spares: Optional[List[Replica]] = None):
        if not replicas:
            raise ValueError("pool needs at least one replica")
        self.replicas: List[Replica] = list(replicas)
        self.spares: List[Replica] = list(spares or [])

    # -- membership views ----------------------------------------------------

    @property
    def members(self) -> List[Replica]:
        """Replicas currently in the rotation (any state but spare)."""
        return self.replicas

    def n_alive(self) -> int:
        return sum(1 for r in self.replicas if r.alive)

    def n_serving(self) -> int:
        """Replicas warmed up and able to take work (idle or busy)."""
        return sum(
            1 for r in self.replicas if r.state in (ReplicaState.IDLE, ReplicaState.BUSY)
        )

    def n_warming(self) -> int:
        return sum(1 for r in self.replicas if r.state is ReplicaState.WARMING)

    def n_spares_left(self) -> int:
        return len(self.spares)

    def exhausted(self) -> bool:
        """No replica alive and no spare left — terminal pool death."""
        return self.n_alive() == 0 and not self.spares

    # -- dispatch selection --------------------------------------------------

    def pick(self) -> Optional[Replica]:
        """The dispatch target: least-loaded idle replica, ties broken
        by id — a deterministic order with no RNG involvement."""
        idle = [r for r in self.replicas if r.state is ReplicaState.IDLE]
        return min(idle, key=lambda r: (r.batches_served, r.rid), default=None)

    # -- lifecycle -----------------------------------------------------------

    def mark_ready(self, replica: Replica) -> None:
        """Warmup finished — the replica enters the rotation idle."""
        if replica.state is ReplicaState.WARMING:
            replica.state = ReplicaState.IDLE

    def crash(self, replica: Replica) -> Optional[Replica]:
        """Kill ``replica`` and promote the next spare, if any.

        Returns the promoted spare (in ``WARMING`` — the caller owns
        scheduling its readiness on the virtual clock) or ``None`` when
        the spare pool is dry.  The dead replica stays in ``replicas``
        as a tombstone so reports can account for it.
        """
        replica.state = ReplicaState.DEAD
        if not self.spares:
            return None
        spare = self.spares.pop(0)
        spare.state = ReplicaState.WARMING
        self.replicas.append(spare)
        return spare
