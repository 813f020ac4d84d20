"""The fault-tolerance policy for SSGD (Algorithm 2 under failure).

The paper's fully synchronous design has a brittle failure mode: one
dead node out of 8192 stalls every allreduce.
:class:`~repro.core.engine.ThreadedBackend` (rank threads over a
:class:`~repro.comm.elastic.ThreadedGroup`) and
:class:`~repro.core.process_backend.ProcessBackend` (supervised OS
processes) run the same SSGD loop under one :class:`ElasticConfig`.
Given none, both run under :data:`MPI_LIKE` — the paper's mode: every
rank is needed, any death fails the run.  A policy with a lower quorum
degrades in three layers instead:

1. **Shrink and continue.**  A crashed or hung rank is evicted from the
   group (arriving at a collective is the heartbeat); the gradient
   average renormalizes over the survivors (``MEAN`` divides by the
   active count), so training proceeds at a slightly smaller effective
   batch — the elastic analogue of the paper's batch-size study.
2. **Checkpoint and restart.**  When survivors fall below the quorum,
   the group raises :class:`~repro.comm.errors.QuorumLostError`; the
   backend reloads the last crash-safe checkpoint and relaunches with
   the full rank count (replacement-node semantics), observable via the
   ``on_restart`` hook.
3. **Determinism.**  With no faults injected, every step is bitwise
   identical under every policy and to the stepped backend: same
   per-rank RNG streams, same rank-order reduction, same collective
   sequence.  On restart, each rank's stream replays the completed
   epochs' draws (``RankStream.seek``) so it matches an uninterrupted
   run.

Fault injection is cooperative: ranks call
:meth:`FaultInjector.maybe_crash` / :meth:`~FaultInjector.hang_delay`
at the top of each step, which is where a real failure detector would
observe missed heartbeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ElasticConfig", "MPI_LIKE"]


@dataclass(frozen=True)
class ElasticConfig:
    """Fault-tolerance policy for elastic SSGD.

    ``timeout_s`` bounds each collective wait (the heartbeat), never
    the run: healthy training may take arbitrarily long.
    ``join_timeout_s`` optionally adds an absolute wall-time cap on one
    launch of the training group — leave it ``None`` (the default)
    unless a scheduler needs a hard bound, since hung ranks are already
    evicted by the collective heartbeat.

    ``quorum_fraction`` of the ranks must survive, rounded up.  With ``checkpoint_dir`` set, the keeper rank writes a
    checkpoint at the end of every epoch and keeps them all; a lost
    quorum then restarts from the newest good one, at once, up to
    ``max_restarts`` times.

    ``spares`` sizes the warm-spare pool for grow-back: with
    ``auto_respawn`` (the default), every evicted/failed rank is
    replaced by a spare at the next step boundary while the pool
    lasts; scheduled ``RANK_RECOVER``/``SPARE_JOIN`` fault events join
    through the same admission path.
    """

    timeout_s: float = 30.0
    quorum_fraction: float = 0.5  # survivors needed, as a fraction of n_ranks
    checkpoint_dir: Optional[str] = None
    max_restarts: int = 2
    join_timeout_s: Optional[float] = None
    spares: int = 0
    auto_respawn: bool = True

    def __post_init__(self):
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.join_timeout_s is not None and self.join_timeout_s <= 0:
            raise ValueError("join_timeout_s must be positive (or None to disable)")
        if not 0.0 < self.quorum_fraction <= 1.0:
            raise ValueError("quorum_fraction must be in (0, 1]")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.spares < 0:
            raise ValueError("spares must be >= 0")

    def resolve_quorum(self, n_ranks: int) -> int:
        from repro.comm.membership import quorum_size

        return quorum_size(n_ranks, self.quorum_fraction)


#: The policy of a run given none: every rank is needed and nothing
#: grows back, so any death fails the run, like an MPI job.
MPI_LIKE = ElasticConfig(quorum_fraction=1.0, auto_respawn=False, max_restarts=0)
