"""Tests for the filesystem-model read hook (model -> real pipeline glue)."""

import time

import numpy as np
import pytest

from repro.io import filesystem
from repro.io.dataset import RecordDataset, write_dataset
from repro.io.filesystem import FilesystemSpec, cori_lustre, make_read_hook
from repro.io.pipeline import PrefetchPipeline


def fast_spec(mbps=100.0):
    return FilesystemSpec(
        name="t", n_targets=4, per_target_bandwidth_GBps=1.0,
        stripe_targets=4, stripe_size_MB=1.0, client_base_MBps=mbps,
    )


class TestMakeReadHook:
    def test_sleeps_for_modeled_time(self, monkeypatch):
        slept = []
        monkeypatch.setattr(filesystem._time, "sleep", slept.append)
        spec = fast_spec(mbps=1.0)  # 1 MB/s
        hook = make_read_hook(spec, n_nodes=1)
        hook("x", 30_000)  # 30 KB at 1 MB/s = 30 ms, times a straggler draw
        # The hook's own stream, replayed: the first draw of the spec's seed.
        assert slept == [spec.read_time_s(30_000, 1, rng=spec.default_rng())]
        assert 0.02 < slept[0] < 0.2

    def test_time_scale(self, monkeypatch):
        slept = []
        monkeypatch.setattr(filesystem._time, "sleep", slept.append)
        hook = make_read_hook(fast_spec(mbps=1.0), n_nodes=1, time_scale=0.0)
        hook("x", 10_000_000)
        assert slept == []
        half = make_read_hook(fast_spec(mbps=1.0), n_nodes=1, time_scale=0.5)
        half("x", 10_000)
        spec = fast_spec(mbps=1.0)
        assert slept == [spec.read_time_s(10_000, 1, rng=spec.default_rng()) * 0.5]

    def test_contention_slows_reads(self):
        spec = cori_lustre()
        base = spec.read_time_s(8e6, 1)
        contended = spec.read_time_s(8e6, 4096)
        assert contended > 2 * base

    def test_validation(self):
        with pytest.raises(ValueError):
            make_read_hook(fast_spec(), n_nodes=0)
        with pytest.raises(ValueError):
            make_read_hook(fast_spec(), n_nodes=1, time_scale=-1.0)

    def test_end_to_end_with_pipeline(self, tmp_path):
        """A modeled slow filesystem visibly stalls a real epoch."""
        rng = np.random.default_rng(0)
        vols = rng.standard_normal((12, 1, 4, 4, 4)).astype(np.float32)
        tgts = rng.random((12, 3)).astype(np.float32)
        paths = write_dataset(tmp_path, vols, tgts, samples_per_file=4)

        def epoch_time(spec_mbps):
            hook = make_read_hook(fast_spec(mbps=spec_mbps), n_nodes=1)
            ds = RecordDataset(paths, read_hook=hook)
            pipe = PrefetchPipeline(ds, n_io_threads=1, buffer_size=2)
            t0 = time.perf_counter()
            for _ in pipe.batches(2, rng=np.random.default_rng(1)):
                pass
            return time.perf_counter() - t0

        fast = epoch_time(1000.0)
        slow = epoch_time(0.05)  # 50 KB/s: ~3KB files take ~60ms each
        assert slow > fast + 0.05
