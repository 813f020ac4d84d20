"""Cluster performance model for the scaling experiments.

The paper's headline systems results — Figure 4's scaling curves, the
8192-node full-scale run (3.35 s epochs, 3.5 Pflop/s sustained, 77%
parallel efficiency), and the I/O and communication analyses of
Section VI — were measured on 9,688 KNL nodes of Cori and 5,320 GPU
nodes of Piz Daint.  This subpackage regenerates them from a model
calibrated *only* with constants the paper itself reports:

* compute: 535 Gflop/s sustained per KNL node and 388 Gflop/s per P100
  (so a 69.33 Gflop sample takes 129 ms / 179 ms — the measured step
  times);
* communication: the CPE ML Plugin's achieved allreduce bandwidth
  (1.7 GB/s/node at 1024 nodes, 1.42 at 8192) applied to the
  2×28.15 MB reduction volume;
* I/O: the filesystem models of :mod:`repro.io.filesystem` (per-node
  and aggregate read limits) pipelined behind compute.

The model then *predicts* the quantities the paper reports elsewhere —
the 162/168 ms steps at 1024/8192 nodes, the Lustre scaling knee, the
epoch times, the sustained Pflop/s — and the benchmarks compare those
predictions against the published values.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy(__name__, {
    "node": ("NodeSpec", "knl_node", "p100_node"),
    "interconnect": ("InterconnectSpec", "aries_plugin", "PAPER_COMM"),
    "cluster": ("ClusterModel", "ScalingPoint", "cori_datawarp_machine",
                "cori_lustre_machine", "pizdaint_lustre_machine", "FullScaleRun"),
})
