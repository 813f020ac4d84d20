"""Robustness-first inference serving tier.

The training side of this repo reproduces the paper's scale; this
subpackage answers the question the paper leaves open — *serving* the
trained CosmoFlow model under real-world failure modes.  It is a
production-shaped tier that degrades gracefully instead of falling
over:

* :mod:`repro.serve.request` — requests, deadlines, lifecycle outcomes;
* :mod:`repro.serve.workload` — seeded Poisson request streams;
* :mod:`repro.serve.admission` — bounded queue, micro-batcher, and
  deadline-feasibility load shedding;
* :mod:`repro.serve.cache` — content-hash LRU result cache (the
  degraded-mode floor: correct answers with zero replicas alive);
* :mod:`repro.serve.replica` — one model instance on a modeled node;
* :mod:`repro.serve.pool` — membership, crash handling, warm spares;
* :mod:`repro.serve.server` — the deterministic discrete-event loop
  tying it together on a seeded virtual clock.

Every decision (admit / shed / dispatch / hedge / crash / redrain /
promote / drop) lands in a string decision log, a tracer instant on the
``"serve"`` track, and a ``serve.*`` metric — and replays bitwise
identically from the same seed and fault plan.  See
``docs/serving.md`` for the architecture and the failure matrix.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy(__name__, {
    "admission": ("AdmissionController", "AdmissionDecision"),
    "cache": ("ResultCache",),
    "pool": ("ReplicaPool",),
    "replica": ("Replica", "ReplicaState"),
    "request": ("InferenceRequest", "Outcome"),
    "server": ("InferenceServer", "ServeConfig", "ServeReport"),
    "workload": ("WorkloadSpec", "build_requests", "payload_volume"),
})
