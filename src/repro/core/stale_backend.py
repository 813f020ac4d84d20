"""Stale-synchronous execution backend (``mode="ssgd"`` / ``"sagn"``).

Like :class:`~repro.core.engine.SteppedBackend`, the ranks are
*simulated*: one shared model replica computes the per-rank gradients,
the starting ranks' batches run as the groups of one pass.  For
synchronous SGD that simulation is exact because
every replica holds identical parameters between steps; under bounded
staleness it stays exact for a subtler reason — a late gradient is, by
definition, a gradient computed at an *older* parameter version, and
the sequential simulation reproduces exactly that: a straggler's
gradient is computed when the straggler *started* (at the then-current
parameters) and folded steps later, while the fast ranks' parameters
have moved on.  The :class:`~repro.comm.stale.StaleGroup` tracks the
virtual clock, arrival order, quorum closes, and the staleness bound;
this backend only routes gradients between the engine's step loop and
the group.

With ``staleness_bound=0`` and an empty fault plan the group waits for
every rank each step and folds in rank order, making this backend
bitwise identical to the stepped backend — and hence to the threaded
sync baseline — losses, gradients, and parameters alike.
"""

from __future__ import annotations

from typing import Optional

from repro.comm.plugin import gradient_message
from repro.comm.stale import StaleGroup, StalenessConfig, StragglerMonitor
from repro.core.engine import SteppedBackend, _SteppedContext
from repro.faults.injector import FaultInjector
from repro.utils.packing import unflatten_like

__all__ = ["StaleBackend"]


class _StaleContext(_SteppedContext):
    """Simulated ranks over a :class:`StaleGroup`.

    Each engine step, only the ranks the group says are *free* compute
    a gradient (a straggler stays busy across several steps of virtual
    time), their batches in starter order through the stepped context's
    grouped pass; the group decides which gradients — fresh and late —
    fold into this step's average.
    """

    def fetch(self, step):
        self._global_step = self.global_step(step)
        self._starters = self.group.begin_step(self._global_step)
        return [self.streams[r].next(self.epoch) for r in self._starters]

    def aggregate(self, losses, grad_lists):
        contribs = {
            r: (loss, gradient_message(grads, self.compressors[r]))
            for r, loss, grads in zip(self._starters, losses, grad_lists)
        }
        loss, avg_flat = self.group.complete_step(self._global_step, contribs)
        return loss, unflatten_like(avg_flat, self.model.parameter_arrays())


class StaleBackend(SteppedBackend):
    """Bounded-staleness SSGD/SAGN over simulated ranks on virtual time
    (Section II-C's straggler mitigation, measured end to end)."""

    context_cls = _StaleContext

    def __init__(
        self,
        *args,
        staleness: Optional[StalenessConfig] = None,
        stale_mode: str = "ssgd",
        injector: Optional[FaultInjector] = None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.staleness = staleness or StalenessConfig()
        self.stale_mode = stale_mode
        self.injector = injector or FaultInjector()

    def execute(self, engine, callbacks, epochs=None):
        k = self.n_ranks
        monitor = StragglerMonitor(k, self.staleness) if self.staleness.monitor_enabled else None
        # The group counts this run on a registry of its own, so its stats
        # are this run's; the engine's registry takes the counts after the
        # run, as it takes a worker process's.
        group = StaleGroup(
            k,
            self.staleness,
            mode=self.stale_mode,
            injector=self.injector,
            monitor=monitor,
            tracer=engine.tracer,
        )
        rc = self._make_context(engine, group, callbacks)
        hist = engine.rank_loop(rc, epochs=epochs)
        engine.metrics.merge(group.metrics.dump())
        stats = group.stats()
        stats["hangs_injected"] = self.injector.fired_total()
        return self._result(rc, hist, stats)
