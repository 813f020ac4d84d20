"""Parameterized filesystem models: Cori Lustre, DataWarp, Piz Daint.

The paper's scaling study (Figure 4, Section VI-A) hinges on the read
path: Lustre's effective per-node bandwidth collapses once thousands of
nodes share the OSTs the data is striped over, while the SSD burst
buffer keeps feeding them.  The model has two regimes, both taken from
the paper's analysis:

* a **contended per-client rate** — each reader sustains
  ``base / (1 + c·log2 n)``: the paper measures 44.7 MB/s/node at 128
  nodes (the 179 ms Lustre step, below Equation 1's 62 MB/s) and
  ~35.9 MB/s at 1024 (the <58% efficiency point); fitting both pins
  base = 104 MB/s, c = 0.19 for 1 MB Lustre stripes, while 8 MB
  DataWarp stripes on SSD sustain ~1.2 GB/s per client;
* an **aggregate limit** — the stripe targets' deliverable bandwidth
  shared across all readers ("the measured performance is limited by
  the lowest bandwidth or significant contention" — nominal 2.8 GB/s
  per OST is not what a busy shared system delivers).

Calibration (documented per preset) reproduces the paper's observed
knees: Cori Lustre fine to ~512 nodes then 58% at 1024; Piz Daint
Lustre 44% at 512; DataWarp never I/O-bound through 8192.

Equation 1 — the minimum read bandwidth per node that hides I/O —
is :func:`required_bandwidth_per_node`: ``BW_min = b × S / t``.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import derive_seed, new_rng

__all__ = [
    "FilesystemSpec",
    "cori_lustre",
    "cori_datawarp",
    "pizdaint_lustre",
    "make_read_hook",
    "required_bandwidth_per_node",
    "PAPER_SAMPLE_MB",
]

#: The paper's sample size in Equation 1's worked example (S = 8 MB).
PAPER_SAMPLE_MB = 8.0


@dataclass(frozen=True)
class FilesystemSpec:
    """A shared parallel filesystem, as seen by a training job."""

    name: str
    n_targets: int  # total OSTs / DataWarp server nodes
    per_target_bandwidth_GBps: float  # nominal hardware rate
    stripe_targets: int  # targets the dataset is striped over
    stripe_size_MB: float
    #: Uncontended per-client read rate (MB/s): what one node gets from
    #: the striped dataset when it reads alone.
    client_base_MBps: float
    #: Per-doubling contention decay: with n concurrent readers each
    #: client sustains ``base / (1 + c·log2 n)`` — the mild per-client
    #: degradation measured between the paper's 128- and 1024-node runs.
    contention_per_doubling: float = 0.0
    #: Fraction of the stripe targets' nominal bandwidth actually
    #: deliverable to this job on the busy shared system (the hard
    #: aggregate ceiling shared across all readers).
    efficiency: float = 1.0
    #: Lognormal sigma of per-read bandwidth variability (stragglers).
    variability_sigma: float = 0.0

    def __post_init__(self):
        if self.n_targets < 1 or self.stripe_targets < 1:
            raise ValueError("target counts must be >= 1")
        if self.stripe_targets > self.n_targets:
            raise ValueError(
                f"cannot stripe over {self.stripe_targets} of {self.n_targets} targets"
            )
        if self.per_target_bandwidth_GBps <= 0 or self.client_base_MBps <= 0:
            raise ValueError("bandwidths must be positive")
        if self.contention_per_doubling < 0:
            raise ValueError("contention_per_doubling must be >= 0")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if self.variability_sigma < 0:
            raise ValueError("variability_sigma must be >= 0")

    # -- capacity ------------------------------------------------------------------

    @property
    def aggregate_bandwidth_GBps(self) -> float:
        """Nominal aggregate bandwidth of the whole system."""
        return self.n_targets * self.per_target_bandwidth_GBps

    @property
    def usable_bandwidth_GBps(self) -> float:
        """Deliverable bandwidth of the stripe targets the job uses."""
        return self.stripe_targets * self.per_target_bandwidth_GBps * self.efficiency

    def contended_client_MBps(self, n_nodes: int) -> float:
        """Per-client rate under ``n_nodes``-way contention (before the
        aggregate ceiling)."""
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        return self.client_base_MBps / (
            1.0 + self.contention_per_doubling * float(np.log2(n_nodes))
        )

    def per_node_bandwidth_MBps(self, n_nodes: int) -> float:
        """Mean read bandwidth available to each of ``n_nodes`` readers:
        ``min(contended per-client rate, usable aggregate / n_nodes)``."""
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        return min(
            self.contended_client_MBps(n_nodes),
            self.usable_bandwidth_GBps * 1e3 / n_nodes,
        )

    def nodes_fed_per_target(self, required_MBps_per_node: float) -> float:
        """How many nodes one *nominal* stripe target can feed at the
        required per-node rate — the paper's "each OST should be capable
        of 2.8 GB/s and be able to feed 46 compute nodes" arithmetic."""
        if required_MBps_per_node <= 0:
            raise ValueError("required bandwidth must be positive")
        return self.per_target_bandwidth_GBps * 1e3 / required_MBps_per_node

    def max_nodes_fed(self, required_MBps_per_node: float) -> float:
        """Largest node count the striped dataset can actually feed at
        the required rate (deliverable, not nominal, bandwidth)."""
        if required_MBps_per_node <= 0:
            raise ValueError("required bandwidth must be positive")
        return self.usable_bandwidth_GBps * 1e3 / required_MBps_per_node

    # -- read-time sampling -----------------------------------------------------------

    def default_rng(self) -> np.random.Generator:
        """The spec's deterministic variability stream (seeded by name).

        Every fresh call starts the same stream, so a bare
        ``read_time_s()`` draw is reproducible; callers that want
        *evolving* variability across reads hold one generator and pass
        it to every call (as :func:`make_read_hook` does).
        """
        return new_rng(derive_seed(0, "filesystem", self.name))

    def read_time_s(self, nbytes: float, n_nodes: int, rng=None) -> float:
        """Seconds for one node (of ``n_nodes`` concurrently reading) to
        pull ``nbytes``; optionally sampled with straggler variability.

        ``rng`` may be a seeded :class:`numpy.random.Generator`, an
        integer seed, or ``None`` — which uses :meth:`default_rng`, not
        OS entropy, so the simulation stays reproducible end to end.
        """
        bw = self.per_node_bandwidth_MBps(n_nodes) * 1e6
        if self.variability_sigma > 0:
            rng = self.default_rng() if rng is None else new_rng(rng)
            # Lognormal with mean 1: slow tails model the paper's
            # low-bandwidth OSTs.
            factor = rng.lognormal(-0.5 * self.variability_sigma**2, self.variability_sigma)
            bw *= factor
        return float(nbytes) / bw


def cori_lustre() -> FilesystemSpec:
    """Cori's Sonexion 2000 Lustre: 248 OSTs, 700 GB/s nominal
    (2.8 GB/s per OST), dataset striped over 64 OSTs at 1 MB.

    Calibration from the paper's own measurements: delivered per-node
    bandwidth was 44.7 MB/s at 128 nodes (the 179 ms step) and
    ~35.9 MB/s at 1024 nodes (the <58% efficiency point).  Fitting
    ``base / (1 + c·log2 n)`` through both gives base = 104 MB/s,
    c = 0.19 — a single reader comfortably exceeds Equation 1's
    62 MB/s (so one node is never I/O bound), and the knee lands
    beyond 512 nodes exactly as Figure 4 shows.  The aggregate ceiling
    (efficiency 0.21 → ~37 GB/s deliverable from the 64 stripe OSTs)
    only binds past ~1200 nodes.
    """
    return FilesystemSpec(
        name="cori-lustre",
        n_targets=248,
        per_target_bandwidth_GBps=700.0 / 248.0,
        stripe_targets=64,
        stripe_size_MB=1.0,
        client_base_MBps=104.0,
        contention_per_doubling=0.19,
        efficiency=0.21,
        variability_sigma=0.35,
    )


def cori_datawarp() -> FilesystemSpec:
    """Cori's DataWarp burst buffer: 288 nodes, ~1.7 TB/s aggregate,
    dataset striped over 125 nodes at 8 MB.

    8 MB stripes on SSD sustain large per-node rates and the usable
    aggregate (~660 GB/s) exceeds even 8192 nodes' demand (~390 GB/s),
    so DataWarp never becomes the bottleneck — Figure 4's left plot.
    """
    return FilesystemSpec(
        name="cori-datawarp",
        n_targets=288,
        per_target_bandwidth_GBps=1700.0 / 288.0,
        stripe_targets=125,
        stripe_size_MB=8.0,
        client_base_MBps=1200.0,
        contention_per_doubling=0.05,
        efficiency=0.9,
        variability_sigma=0.05,
    )


def pizdaint_lustre() -> FilesystemSpec:
    """Piz Daint's Sonexion 3000 Lustre: 40 OSTs, 112 GB/s aggregate,
    dataset striped over 16 OSTs at 1 MB.

    Calibration: same per-client behaviour as Cori Lustre (same 1 MB
    stripes, same client software); the much smaller stripe set (16
    OSTs) gives a ~10 GB/s aggregate ceiling (efficiency 0.225) that
    binds from ~256 nodes — "a probable read bottleneck is encountered
    at 512 nodes and beyond" with 44% efficiency at 512.
    """
    return FilesystemSpec(
        name="pizdaint-lustre",
        n_targets=40,
        per_target_bandwidth_GBps=112.0 / 40.0,
        stripe_targets=16,
        stripe_size_MB=1.0,
        client_base_MBps=104.0,
        contention_per_doubling=0.19,
        efficiency=0.225,
        variability_sigma=0.35,
    )


def make_read_hook(
    spec: FilesystemSpec,
    n_nodes: int,
    time_scale: float = 1.0,
    rng=None,
):
    """A ``RecordDataset.read_hook`` that sleeps for the modeled read time.

    Connects the filesystem model to the *real* prefetch pipeline: every
    file read blocks for ``spec.read_time_s(nbytes, n_nodes)`` (scaled
    by ``time_scale`` so experiments stay fast), reproducing the paper's
    Lustre stall behaviour end-to-end in running code rather than only
    in the analytical model.

    ``rng`` (seeded generator or integer seed) drives the straggler
    variability; ``None`` seeds the hook from the spec's name, so two
    hooks built the same way replay the same latency sequence — never
    fresh OS entropy.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if time_scale < 0:
        raise ValueError("time_scale must be >= 0")
    rng = spec.default_rng() if rng is None else new_rng(rng)

    def hook(path, nbytes: int) -> None:
        delay = spec.read_time_s(nbytes, n_nodes, rng=rng) * time_scale
        if delay > 0:
            _time.sleep(delay)

    return hook


def required_bandwidth_per_node(
    batch_size: int = 1,
    sample_MB: float = PAPER_SAMPLE_MB,
    step_time_s: float = 0.129,
) -> float:
    """Equation 1: ``BW_min(MB/s/node) = b × S / t``.

    Paper's worked example: b=1, S=8 MB, t≈0.129 s → 62 MB/s/node.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if sample_MB <= 0 or step_time_s <= 0:
        raise ValueError("sample size and step time must be positive")
    return batch_size * sample_MB / step_time_s
