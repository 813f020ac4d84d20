"""Fault injection for the resilience layer.

The paper's SSGD design (Algorithm 2) is fully synchronous: every rank
participates in every allreduce, so at 8192 nodes a single crashed or
hung rank stalls the whole machine, and a single corrupt TFRecord kills
the input pipeline.  This subpackage provides the *failure side* of the
repo's fault-tolerance story:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, a deterministic,
  seeded schedule of :class:`FaultEvent` entries (rank crash, rank
  hang, allreduce message corruption, on-disk record corruption,
  filesystem read errors and latency spikes, burst-buffer stage-in
  failures, slow storage targets, and burst-buffer evictions);
* :mod:`repro.faults.injector` — :class:`FaultInjector`, the
  thread-safe runtime that fires each event exactly once at the
  matching injection point and counts what it injected.

The *recovery side* lives with the code it protects:
:mod:`repro.comm.elastic` (shrink-and-continue collectives),
:mod:`repro.core.elastic` (elastic SSGD with checkpoint restart),
:mod:`repro.io` (retry/skip on injected I/O faults),
:mod:`repro.io.staging` (burst-buffer staging with hedged reads,
circuit breakers, and degraded-mode fallback), and
:mod:`repro.core.checkpoint` (crash-safe snapshots).  See
``docs/resilience.md`` for the full failure model.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy(__name__, {
    "plan": ("FaultEvent", "FaultKind", "FaultPlan"),
    "injector": ("FaultInjector", "InjectedCrash", "InjectedFault", "InjectedReadError",
                 "InjectedStageError"),
})
