"""E3 — the I/O bandwidth analysis (Section VI-A, Equation 1).

Reproduces the paper's worked numbers:

* Equation 1: ``BW_min = b x S / t`` = 62 MB/s/node (b=1, S=8 MB,
  t=129 ms);
* "each OST should be capable of 2.8 GB/s and be able to feed 46
  compute nodes";
* the 128-node step times: 150 ms on DataWarp vs 179 ms on Lustre
  (16% better absolute performance on DataWarp);

and measures the same mechanism for real on the prefetch pipeline:
with storage slower than compute, the consumer stalls by exactly the
bandwidth shortfall.
"""

import numpy as np
import pytest

from benchmarks.conftest import save_report
from repro.io.dataset import RecordDataset, write_dataset
from repro.io.filesystem import (
    cori_datawarp,
    cori_lustre,
    required_bandwidth_per_node,
)
from repro.io.pipeline import PrefetchPipeline
from repro.perfmodel import cori_datawarp_machine, cori_lustre_machine


def test_equation1_analysis(benchmark):
    bw_min = benchmark.pedantic(
        required_bandwidth_per_node, args=(1, 8.0, 0.129), rounds=10, iterations=1
    )
    lustre, bb = cori_lustre(), cori_datawarp()
    m_bb = cori_datawarp_machine(straggler_exposure=0.0)
    m_lu = cori_lustre_machine(straggler_exposure=0.0)

    lines = [
        "E3: I/O bandwidth analysis (Equation 1)",
        f"{'quantity':<46}{'ours':>10}{'paper':>10}",
        f"{'BW_min (MB/s/node), b=1, S=8MB, t=129ms':<46}{bw_min:>10.1f}{'62':>10}",
        f"{'nodes one nominal 2.8 GB/s OST can feed':<46}"
        f"{lustre.nodes_fed_per_target(bw_min):>10.1f}{'46':>10}",
        f"{'step at 128 nodes, DataWarp (ms)':<46}"
        f"{m_bb.step_time_s(128) * 1e3:>10.1f}{'150':>10}",
        f"{'step at 128 nodes, Lustre (ms)':<46}"
        f"{m_lu.step_time_s(128) * 1e3:>10.1f}{'179':>10}",
        f"{'DataWarp advantage at 128 nodes':<46}"
        f"{(m_lu.step_time_s(128) / m_bb.step_time_s(128) - 1) * 100:>9.1f}%{'16%':>10}",
        f"{'implied per-OST delivery at 128 nodes (MB/s)':<46}"
        f"{lustre.per_node_bandwidth_MBps(128) * 128 / 64:>10.1f}{'90':>10}",
    ]
    save_report("e3_io_bandwidth", "\n".join(lines))

    assert bw_min == pytest.approx(62.0, rel=0.01)
    assert lustre.nodes_fed_per_target(bw_min) == pytest.approx(46, rel=0.02)
    assert m_lu.step_time_s(128) * 1e3 == pytest.approx(179, rel=0.03)
    assert lustre.per_node_bandwidth_MBps(128) * 128 / 64 == pytest.approx(90, rel=0.03)


def test_pipeline_stall_mechanism(benchmark, tmp_path):
    """The QueueRunner mechanism: I/O is hidden while storage outpaces
    compute, and stalls the step by the shortfall otherwise."""
    import time

    compute_s = 0.004
    n = 40
    # One sample per file, so a file read is a step's worth of data.
    paths = write_dataset(
        tmp_path,
        np.zeros((n, 1, 4, 4, 4), dtype=np.float32),
        np.zeros((n, 3), dtype=np.float32),
        samples_per_file=1,
    )

    def run_epoch(read_time_s, threads):
        store = RecordDataset(paths, read_hook=lambda path, nbytes: time.sleep(read_time_s))
        pipe = PrefetchPipeline(store, n_io_threads=threads, buffer_size=8)
        t0 = time.perf_counter()
        for _ in pipe.batches(1):
            time.sleep(compute_s)  # gradient computation stand-in
        return time.perf_counter() - t0, pipe.stats

    # A read as long as a step, four in flight: storage 4x faster than needed.
    fast_total, fast_stats = run_epoch(0.004, threads=4)
    slow_total, slow_stats = run_epoch(0.012, threads=1)  # storage 3x slower
    benchmark.pedantic(run_epoch, args=(0.004, 4), rounds=1, iterations=1)

    lines = [
        "E3b: prefetch-pipeline stall mechanism (measured)",
        f"fast storage: epoch {fast_total:.2f}s, consumer waited "
        f"{fast_stats.consumer_wait_s:.3f}s (I/O hidden)",
        f"slow storage: epoch {slow_total:.2f}s, consumer waited "
        f"{slow_stats.consumer_wait_s:.3f}s (I/O exposed — the Lustre regime)",
    ]
    save_report("e3_pipeline_stall", "\n".join(lines))

    compute_total = n * compute_s
    assert fast_total < 2.0 * compute_total  # hidden
    assert slow_total > 2.0 * compute_total  # exposed
    assert slow_stats.consumer_wait_s > 5 * fast_stats.consumer_wait_s
