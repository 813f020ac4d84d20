"""Engine observability hook: trace events + metrics for every backend.

:class:`TraceCallback` is installed by
:class:`~repro.core.engine.TrainingEngine` on every run (it implements
the full :class:`~repro.core.engine.Callback` protocol without
importing it, to keep ``repro.obs`` free of core dependencies).  It has
two jobs:

* **Metrics** — always on.  It counts the loop's hook events:
  ``engine.steps`` (global synchronized optimizer steps, counted once
  per step on the keeper rank so local, stepped, threaded, and elastic
  runs agree), ``engine.rank_steps`` (per-executing-rank step count),
  ``engine.epochs``, ``engine.rejoins``, ``engine.restarts`` and
  ``comm.step_aggregations`` (gradient-averaging rounds).  Stage time
  (``engine.stage.<s>.seconds`` / ``.count``) and ``engine.records``
  are written by the engine loop where it measures them
  (:meth:`~repro.core.engine.RankContext.timed_stage`), not here; the
  backend's ``group_stats`` stay the run's report
  (:attr:`~repro.core.engine.EngineResult.stats`) and are not copied
  into the registry.

* **Tracing** — active only when the engine's tracer is enabled.  It
  marks epoch boundaries, validation results, elastic restarts, and
  run completion as instant events on the owning rank's track.  The
  per-step io/compute/comm/optimizer *spans* are emitted by the engine
  loop itself (they need the stage timings), not by this callback.

The per-step and per-epoch span events carry ``step``/``epoch`` args so
``trace summarize`` can rebuild the Figure 3 stage table per epoch.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["TraceCallback"]


class TraceCallback:
    """Observability hooks over the engine loop (see module docstring)."""

    def __init__(self, tracer: Optional[Tracer] = None, metrics: Optional[MetricsRegistry] = None):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # -- per-rank hooks ----------------------------------------------------

    def on_run_start(self, rc) -> None:
        if self.tracer.enabled:
            self.tracer.instant(
                "run-start", cat="engine", track=rc.rank, epoch=rc.start_epoch
            )

    def on_epoch_start(self, rc) -> None:
        if self.tracer.enabled:
            self.tracer.instant("epoch-start", cat="engine", track=rc.rank, epoch=rc.epoch)

    def on_step_end(self, rc) -> None:
        m = self.metrics
        m.counter("engine.rank_steps").add(1)
        if rc.is_keeper:
            # One synchronized global step per keeper-rank step: local
            # k=1, stepped, threaded, and elastic all count the same.
            m.counter("engine.steps").add(1)
            if rc.aggregates:
                m.counter("comm.step_aggregations").add(1)

    def on_validation(self, rc) -> None:
        if self.tracer.enabled:
            self.tracer.instant(
                "validation",
                cat="engine",
                track=rc.rank,
                epoch=rc.epoch,
                val_loss=float(rc.last_val_loss),
            )

    def on_epoch_end(self, rc) -> None:
        if rc.is_keeper:
            self.metrics.counter("engine.epochs").add(1)
            self.metrics.histogram("engine.epoch_time_s").observe(rc.history.epoch_time[-1])
        if self.tracer.enabled:
            self.tracer.instant(
                "epoch-end",
                cat="engine",
                track=rc.rank,
                epoch=rc.epoch,
                train_loss=float(rc.history.train_loss[-1]),
            )

    def on_rejoin(self, rc) -> None:
        self.metrics.counter("engine.rejoins").add(1)
        if self.tracer.enabled:
            self.tracer.instant(
                "rejoin",
                cat="engine",
                track=rc.rank,
                epoch=rc.epoch,
                resume_step=rc.resume_step,
            )

    def on_rank_end(self, rc) -> None:
        return None

    # -- driver hooks ------------------------------------------------------

    def on_restart(self, engine, restarts: int, exc: BaseException) -> None:
        self.metrics.counter("engine.restarts").add(1)
        if self.tracer.enabled:
            self.tracer.instant(
                "restart",
                cat="engine",
                track="driver",
                restarts=restarts,
                cause=type(exc).__name__,
            )

    def on_run_end(self, engine, result) -> None:
        if self.tracer.enabled:
            self.tracer.instant("run-end", cat="engine", track="driver")
