"""Seeded synthetic request streams for the serving tier.

Arrivals are a Poisson process (exponential inter-arrival gaps) and
payloads are drawn uniformly from ``n_unique`` distinct input volumes —
the knob that controls cache-hit potential.  Everything is derived from
one seed through :func:`~repro.utils.rng.derive_seed`, so a workload is
a pure function of ``(spec, seed)`` and two runs replay the identical
request stream bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.serve.request import InferenceRequest
from repro.utils.rng import derive_seed, new_rng

__all__ = ["WorkloadSpec", "build_requests", "payload_volume"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one synthetic request stream.

    ``rate_qps`` is the *offered* load; the A9 benchmark sweeps it past
    pool capacity to exercise admission control.  ``deadline_slack_s``
    is per-request slack added to the arrival time to form the absolute
    deadline.
    """

    n_requests: int = 100
    rate_qps: float = 100.0
    deadline_slack_s: float = 0.25
    n_unique: int = 32

    def __post_init__(self):
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if self.rate_qps <= 0:
            raise ValueError("rate_qps must be > 0")
        if self.deadline_slack_s <= 0:
            raise ValueError("deadline_slack_s must be > 0")
        if self.n_unique < 1:
            raise ValueError("n_unique must be >= 1")


def build_requests(spec: WorkloadSpec, seed: int = 0) -> List[InferenceRequest]:
    """The full request stream for one run, in arrival order."""
    rng = new_rng(derive_seed(seed, "serve-workload"))
    t = 0.0
    requests: List[InferenceRequest] = []
    for rid in range(spec.n_requests):
        t += float(rng.exponential(1.0 / spec.rate_qps))
        k = int(rng.integers(spec.n_unique))
        requests.append(
            InferenceRequest(
                rid=rid,
                arrival_s=t,
                deadline_s=t + spec.deadline_slack_s,
                payload=f"vol-{k:04d}",
            )
        )
    return requests


def payload_volume(payload: str, size: int, seed: int = 0) -> np.ndarray:
    """The deterministic input volume a payload hash names.

    Real deployments hash the client's volume; here the hash *is* the
    identity and the volume is regenerated from it, so any replica (and
    any test) can materialize the same input without shipping arrays
    around.
    """
    rng = new_rng(derive_seed(seed, "serve-payload", payload))
    return rng.standard_normal((size, size, size)).astype(np.float32)
