"""Stale-synchronous execution backend (``mode="ssgd"`` / ``"sagn"``).

Like :class:`~repro.core.engine.SteppedBackend`, the ranks are
*simulated*: one shared model replica computes per-rank gradients
sequentially.  For synchronous SGD that simulation is exact because
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

from typing import Dict, List, Optional

import numpy as np

from repro.comm.stale import StaleGroup, StalenessConfig, StragglerMonitor
from repro.core.engine import SteppedBackend, _SteppedContext
from repro.faults.injector import FaultInjector
from repro.utils.packing import flatten_arrays, unflatten_like

__all__ = ["StaleBackend"]


class _StaleContext(_SteppedContext):
    """Sequentially simulated ranks over a :class:`StaleGroup`.

    Each engine step, only the ranks the group says are *free* compute
    a gradient (a straggler stays busy across several steps of virtual
    time); the group decides which gradients — fresh and late — fold
    into this step's average.
    """

    def fetch(self, step):
        self._global_step = self.epoch * self.steps_per_epoch + step
        self._starters = self.group.begin_step(self._global_step)
        return [(r, next(self._iters[r])) for r in self._starters]

    def compute(self, batch):
        losses: Dict[int, float] = {}
        grad_lists: Dict[int, List[np.ndarray]] = {}
        n = 0
        for r, (x, y) in batch:
            loss, grads = self._loss_and_grads(x, y)
            losses[r] = loss
            grad_lists[r] = grads
            n += len(x)
        return losses, grad_lists, n

    def aggregate(self, losses, grad_lists):
        contribs = {}
        for r in self._starters:
            flat = flatten_arrays(grad_lists[r])
            if self.compressors is not None:
                flat = self.compressors[r].compress(flat)
            contribs[r] = (losses[r], flat)
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
        monitor = (
            StragglerMonitor(k, self.staleness, metrics=engine.metrics, tracer=engine.tracer)
            if self.staleness.monitor_enabled
            else None
        )
        group = StaleGroup(
            k,
            self.staleness,
            mode=self.stale_mode,
            injector=self.injector,
            monitor=monitor,
            metrics=engine.metrics,
            tracer=engine.tracer,
        )
        rc = self._make_context(engine, group, callbacks)
        hist = engine.rank_loop(rc, epochs=epochs)
        stats = group.stats()
        stats["hangs_injected"] = self.injector.fired_total()
        return self._result(rc, hist, stats)
