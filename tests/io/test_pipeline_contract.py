"""The I/O line of the determinism contract:

    ``PrefetchPipeline(ds, n).batches(b, rng, shuffle)``
        == ``ds.batches(b, rng, shuffle)``        for every ``n``

— the same batches in the same order, from the same number of reads,
checksummed bytes, skipped records and staging decisions.  The thread
count changes how many of those reads overlap, and nothing else.
Counts only; no wall clock.
"""

import sys
import tempfile
import threading
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineConfig, LocalBackend, TrainingEngine
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer
from repro.core.topology import ConvSpec, CosmoFlowConfig
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.io.dataset import RecordDataset, write_dataset
from repro.io.pipeline import PrefetchPipeline
from repro.io.staging import StagingConfig, StagingManager

THREADS = (1, 2, 6)


def write_files(directory, n_files, per_file, size=2):
    """``n_files`` x ``per_file`` samples whose target is their index."""
    n = n_files * per_file
    rng = np.random.default_rng(0)
    vols = rng.standard_normal((n, 1, size, size, size)).astype(np.float32)
    tgts = np.arange(n, dtype=np.float32)[:, None]
    return write_dataset(directory, vols, tgts, samples_per_file=per_file)


def epoch(source, batch_size, seed, shuffle=True):
    batches = source.batches(batch_size, rng=np.random.default_rng(seed), shuffle=shuffle)
    return [(x.copy(), y.copy()) for x, y in batches]


def assert_same_batches(got, want):
    assert len(got) == len(want)
    for (gx, gy), (wx, wy) in zip(got, want):
        assert gx.tobytes() == wx.tobytes() and gx.shape == wx.shape
        assert gy.tobytes() == wy.tobytes() and gy.shape == wy.shape


@settings(max_examples=25, deadline=None)
@given(
    n_files=st.integers(1, 7),
    per_file=st.integers(1, 5),
    batch_size=st.integers(1, 7),  # divides a file, straddles files, or exceeds one
    n=st.sampled_from(THREADS),
    shuffle=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_the_pipeline_is_the_direct_read(n_files, per_file, batch_size, n, shuffle, seed):
    with tempfile.TemporaryDirectory() as tmp:
        ds = RecordDataset(write_files(tmp, n_files, per_file))
        want = epoch(ds, batch_size, seed, shuffle)
        pipe = PrefetchPipeline(ds, n_io_threads=n, buffer_size=3)
        assert_same_batches(epoch(pipe, batch_size, seed, shuffle), want)
        assert pipe.stats.samples_delivered == len(ds)


def test_the_callers_generator_is_consumed_the_same_way(tmp_path):
    """Epoch after epoch off one generator, as the engine draws them."""
    ds = RecordDataset(write_files(tmp_path, 5, 3))
    direct_rng, piped_rng = np.random.default_rng(4), np.random.default_rng(4)
    pipe = PrefetchPipeline(ds, n_io_threads=3)
    for _ in range(3):
        want = [(x.copy(), y.copy()) for x, y in ds.batches(4, rng=direct_rng)]
        assert_same_batches([(x.copy(), y.copy()) for x, y in pipe.batches(4, rng=piped_rng)], want)
    assert direct_rng.bit_generator.state == piped_rng.bit_generator.state


class TestOneReadPerFile:
    """What an epoch costs is the direct read's cost, at every n."""

    def cost(self, paths, n, checksummed):
        calls = []
        ds = RecordDataset(paths, read_hook=lambda p, nbytes: calls.append(p), strict=False)
        source = ds if n == 0 else PrefetchPipeline(ds, n_io_threads=n)
        checksummed.clear()  # the index pass
        delivered = sum(len(x) for x, _ in epoch(source, 4, seed=7))
        return {
            "delivered": delivered,
            "bytes_read": ds.bytes_read,
            "checksummed": sorted(checksummed),
            "records_skipped": ds.records_skipped,
            "hook_calls": sorted(calls),
        }

    def test_every_count_equals_the_direct_reads(self, tmp_path, checksummed):
        paths = write_files(tmp_path, 12, 4)
        FaultInjector(
            FaultPlan(events=[FaultEvent(FaultKind.RECORD_CORRUPT, step=2)])
        ).corrupt_record_file(paths[5])
        direct = self.cost(paths, 0, checksummed)
        assert direct["delivered"] == 47 and direct["records_skipped"] == 1
        assert direct["bytes_read"] == sum(p.stat().st_size for p in paths)
        assert direct["hook_calls"] == sorted(paths)
        for n in THREADS:
            assert self.cost(paths, n, checksummed) == direct, f"n={n}"

    def test_the_threads_read_different_files_at_once(self, tmp_path):
        """Each read waits until a second one is in flight beside it."""
        paths = write_files(tmp_path, 12, 4)
        lock = threading.Lock()
        in_flight, most, calls = set(), [0], []
        overlapped = threading.Event()

        def hook(path, nbytes):
            with lock:
                calls.append(path)
                in_flight.add(path)
                most[0] = max(most[0], len(in_flight))
                if len(in_flight) >= 2:
                    overlapped.set()
            overlapped.wait(timeout=10.0)
            with lock:
                in_flight.discard(path)

        pipe = PrefetchPipeline(RecordDataset(paths, read_hook=hook), n_io_threads=4)
        assert sum(len(x) for x, _ in pipe.batches(4, rng=0)) == 48
        assert most[0] >= 2
        assert sorted(calls) == sorted(paths)  # and no file twice

    def test_read_ahead_is_bounded(self, tmp_path):
        """No more than ``buffer_size`` files are started ahead of the
        one the consumer has been handed."""
        paths = write_files(tmp_path, 12, 1)
        started = []
        ds = RecordDataset(paths, read_hook=lambda p, nbytes: started.append(p))
        pipe = PrefetchPipeline(ds, n_io_threads=4, buffer_size=3)
        for taken, _ in enumerate(pipe.batches(1, rng=0, shuffle=False), 1):
            assert len(started) <= taken + 3
        assert len(started) == 12


def test_a_consumed_file_is_let_go(tmp_path):
    """Samples are views of their file's mapping; the read-ahead holds a
    file until the consumer has it, not until the epoch ends."""
    ds = RecordDataset(write_files(tmp_path, 6, 2))
    load_file, first_volumes = ds._load_file, []

    def remembering(path, resolved=None):
        samples = load_file(path, resolved)
        first_volumes.append(weakref.ref(samples[0][0]))
        return samples

    ds._load_file = remembering
    pipe = PrefetchPipeline(ds, n_io_threads=2, buffer_size=2)
    for taken, _ in enumerate(pipe.batches(2, rng=0, shuffle=False), 1):
        if taken >= 3:
            assert first_volumes[taken - 3]() is None
    assert len(first_volumes) == 6


def test_training_through_the_pipeline_is_training_on_the_dataset(tmp_path):
    paths = write_files(tmp_path, 5, 4, size=4)
    cfg = CosmoFlowConfig(
        name="micro4", input_size=4, conv_layers=(ConvSpec(16, 2),), fc_sizes=(8,), n_outputs=1
    )

    def train(wrap):
        model = CosmoFlowModel(cfg, seed=0)
        data = wrap(RecordDataset(paths))
        backend = LocalBackend(model, CosmoFlowOptimizer(model.parameter_arrays()), data, rng=3)
        TrainingEngine(backend, EngineConfig(epochs=2, validate=False)).run()
        return model.get_flat_parameters()

    direct = train(lambda ds: ds)
    piped = train(lambda ds: PrefetchPipeline(ds, n_io_threads=3))
    assert piped.tobytes() == direct.tobytes()


class TestOverAStagingTier:
    """12 files over a burst buffer that holds half of them: every
    stage-in evicts, and with read-ahead it evicts copies that other
    threads have resolved and not yet opened."""

    def two_epochs(self, paths, bb_dir, n):
        capacity = sum(p.stat().st_size for p in paths) // 2
        manager = StagingManager(bb_dir, config=StagingConfig(capacity_bytes=capacity))
        ds = RecordDataset(paths, staging=manager)
        source = ds if n == 0 else PrefetchPipeline(ds, n_io_threads=n)
        seen = [
            sorted(float(t) for _, y in epoch(source, 4, seed) for t in y[:, 0]) for seed in (7, 8)
        ]
        s = manager.stats
        return seen, (s.stage_ins, s.capacity_evictions, s.bytes_staged)

    def test_staging_decisions_are_the_direct_reads(self, tmp_path):
        """Fails at the parent commit: FileNotFoundError in most runs at
        six threads, and a third more stage-ins at two."""
        paths = write_files(tmp_path / "ds", 12, 4, size=8)
        everything = [float(i) for i in range(48)]
        seen, ledger = self.two_epochs(paths, tmp_path / "bb-direct", 0)
        assert seen == [everything, everything]
        assert ledger[0] > 12 and ledger[1] > 0  # the buffer did overflow
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches between resolve and open
        try:
            for run in range(20):
                n = THREADS[run % 3] if run < 6 else 6
                got = self.two_epochs(paths, tmp_path / f"bb-{run}", n)
                assert got == (seen, ledger), f"run {run}, n={n}"
        finally:
            sys.setswitchinterval(interval)
