"""E4 — the communication analysis (Section VI-B).

Paper numbers reproduced by the model:

* 33 ms gradient-aggregation latency at 1024 nodes (162 - 129 ms);
* achieved bandwidth (2 x 28.15 MB / latency): 1.7 GB/s/node at 1024,
  1.42 GB/s/node at 8192 — against Aries' ~10 GB/s capability;

plus a real in-process measurement: one allreduce of an actual
28.15 MB gradient message across threaded ranks, with the same
twice-the-message-volume accounting.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import save_report
from repro.comm.communicator import ReduceOp
from repro.comm.elastic import ThreadedGroup
from repro.perfmodel.interconnect import PAPER_COMM, aries_plugin


def test_model_vs_paper(benchmark):
    ic = aries_plugin()
    m = PAPER_COMM["model_bytes"]
    t_1024 = ic.allreduce_time_s(1024, m)
    t_8192 = ic.allreduce_time_s(8192, m)
    benchmark.pedantic(ic.allreduce_time_s, args=(8192, m), rounds=10, iterations=1)

    lines = [
        "E4: gradient-aggregation analysis vs paper (Section VI-B)",
        f"{'quantity':<44}{'ours':>10}{'paper':>10}",
        f"{'aggregation latency @1024 (ms)':<44}{t_1024 * 1e3:>10.1f}{'33':>10}",
        f"{'achieved BW @1024 (GB/s/node)':<44}"
        f"{2 * m / t_1024 / 1e9:>10.2f}{'1.7':>10}",
        f"{'aggregation latency @8192 (ms)':<44}{t_8192 * 1e3:>10.1f}{'39.6':>10}",
        f"{'achieved BW @8192 (GB/s/node)':<44}"
        f"{2 * m / t_8192 / 1e9:>10.2f}{'1.42':>10}",
        f"{'Aries point-to-point capability (GB/s)':<44}"
        f"{ic.peak_bandwidth_Bps / 1e9:>10.1f}{'~10':>10}",
    ]
    save_report("e4_communication_model", "\n".join(lines))

    assert t_1024 * 1e3 == pytest.approx(33.0, rel=0.03)
    assert 2 * m / t_8192 / 1e9 == pytest.approx(1.42, rel=0.05)


def test_real_plugin_aggregation(benchmark):
    """Average a real 28.15 MB gradient message across 4 threaded ranks:
    one ``comm.allreduce`` per rank, timed on each."""
    n_params = int(PAPER_COMM["model_bytes"] // 4)
    ranks = 4

    def aggregate():
        group = ThreadedGroup(ranks)

        def body(comm):
            rng = np.random.default_rng(comm.rank)
            grad = rng.standard_normal(n_params).astype(np.float32)
            t0 = time.perf_counter()
            avg = comm.allreduce(grad, ReduceOp.MEAN)
            return time.perf_counter() - t0, avg.nbytes

        return group.run(body)

    results = benchmark.pedantic(aggregate, rounds=2, iterations=1)
    per_call = np.mean([seconds for seconds, _ in results])
    volume = 2 * PAPER_COMM["model_bytes"]
    lines = [
        "E4b: real in-process gradient allreduce (28.15 MB message, 4 ranks)",
        f"aggregation time: {per_call * 1e3:.1f} ms",
        f"effective 'bandwidth' (2M/t convention): {volume / per_call / 1e9:.2f} GB/s",
        "(shared-memory threads, so this bounds the software overhead, "
        "not a network; the paper's wire numbers are in e4_communication_model)",
    ]
    save_report("e4_real_plugin", "\n".join(lines))
    assert per_call > 0
    for _, nbytes in results:
        assert nbytes == pytest.approx(n_params * 4, rel=1e-6)
