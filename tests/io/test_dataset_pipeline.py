"""Tests for RecordDataset and the prefetch pipeline."""

import time

import numpy as np
import pytest

from repro.io.dataset import RecordDataset, write_dataset
from repro.io.pipeline import PrefetchPipeline


def slow_store(seconds_per_file):
    """A ``read_hook`` that makes every file read take that long."""
    return lambda path, nbytes: time.sleep(seconds_per_file)


@pytest.fixture
def dataset_dir(tmp_path):
    rng = np.random.default_rng(0)
    vols = rng.standard_normal((20, 1, 4, 4, 4)).astype(np.float32)
    tgts = rng.random((20, 3)).astype(np.float32)
    paths = write_dataset(tmp_path, vols, tgts, samples_per_file=6)
    return tmp_path, paths, vols, tgts


class TestWriteDataset:
    def test_file_count(self, dataset_dir):
        _, paths, _, _ = dataset_dir
        assert len(paths) == 4  # ceil(20/6)

    def test_shuffled_assignment(self, tmp_path):
        rng = np.random.default_rng(1)
        vols = np.arange(12, dtype=np.float32).reshape(12, 1, 1, 1, 1)
        tgts = np.arange(12, dtype=np.float32)[:, None]
        a = write_dataset(tmp_path / "a", vols, tgts, samples_per_file=4, shuffle_rng=3)
        ds = RecordDataset(a)
        _, ys = ds.to_arrays()
        assert not np.array_equal(ys.ravel(), np.arange(12))  # shuffled
        assert sorted(ys.ravel().tolist()) == list(range(12))  # complete

    def test_validation_errors(self, tmp_path):
        with pytest.raises(ValueError):
            write_dataset(tmp_path, np.zeros((0, 1, 2, 2, 2)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            write_dataset(tmp_path, np.zeros((2, 1, 2, 2, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            write_dataset(
                tmp_path, np.zeros((2, 1, 2, 2, 2)), np.zeros((2, 3)), samples_per_file=0
            )


class TestRecordDataset:
    def test_len(self, dataset_dir):
        _, paths, _, _ = dataset_dir
        assert len(RecordDataset(paths)) == 20

    def test_to_arrays_round_trip(self, dataset_dir):
        _, paths, vols, tgts = dataset_dir
        x, y = RecordDataset(paths).to_arrays()
        # unshuffled write: order preserved
        np.testing.assert_array_equal(x, vols)
        np.testing.assert_array_equal(y, tgts)

    def test_batches_cover_epoch(self, dataset_dir):
        _, paths, _, tgts = dataset_dir
        ds = RecordDataset(paths)
        seen = []
        for x, y in ds.batches(3, rng=np.random.default_rng(0)):
            assert x.ndim == 5
            seen.extend(y[:, 0].tolist())
        assert sorted(seen) == sorted(tgts[:, 0].tolist())

    def test_batches_deterministic(self, dataset_dir):
        _, paths, _, _ = dataset_dir
        ds = RecordDataset(paths)
        a = [y for _, y in ds.batches(2, rng=np.random.default_rng(5))]
        b = [y for _, y in ds.batches(2, rng=np.random.default_rng(5))]
        np.testing.assert_array_equal(np.concatenate(a), np.concatenate(b))

    def test_shard_partition(self, dataset_dir):
        _, paths, _, tgts = dataset_dir
        ds = RecordDataset(paths)
        all_ys = []
        for r in range(2):
            shard = ds.shard(r, 2)
            _, ys = shard.to_arrays()
            all_ys.extend(ys[:, 0].tolist())
        assert sorted(all_ys) == sorted(tgts[:, 0].tolist())

    def test_shard_too_many_ranks(self, dataset_dir):
        _, paths, _, _ = dataset_dir
        with pytest.raises(ValueError):
            RecordDataset(paths).shard(4, 5)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RecordDataset([tmp_path / "nope.rec"])

    def test_empty_paths_raise(self):
        with pytest.raises(ValueError):
            RecordDataset([])

    def test_read_hook_called(self, dataset_dir):
        _, paths, _, _ = dataset_dir
        calls = []
        ds = RecordDataset(paths, read_hook=lambda p, n: calls.append((p, n)))
        ds.to_arrays()
        assert len(calls) == len(paths)
        assert all(n > 0 for _, n in calls)

    def test_bytes_read_tracked(self, dataset_dir):
        _, paths, _, _ = dataset_dir
        ds = RecordDataset(paths)
        ds.to_arrays()
        assert ds.bytes_read == sum(p.stat().st_size for p in paths)


class TestPrefetchPipeline:
    def test_delivers_full_epoch(self, dataset_dir):
        _, paths, _, tgts = dataset_dir
        pipe = PrefetchPipeline(RecordDataset(paths), n_io_threads=3, buffer_size=4)
        seen = []
        for x, y in pipe.batches(2, rng=np.random.default_rng(0)):
            seen.extend(y[:, 0].tolist())
        assert sorted(seen) == sorted(tgts[:, 0].tolist())
        assert pipe.stats.samples_delivered == 20

    def test_len_passthrough(self, dataset_dir):
        _, paths, _, _ = dataset_dir
        assert len(PrefetchPipeline(RecordDataset(paths))) == 20

    def test_single_thread(self, dataset_dir):
        _, paths, _, _ = dataset_dir
        pipe = PrefetchPipeline(RecordDataset(paths), n_io_threads=1)
        n = sum(len(x) for x, _ in pipe.batches(4, rng=np.random.default_rng(1)))
        assert n == 20

    def test_slow_storage_shows_waits(self, dataset_dir):
        _, paths, _, _ = dataset_dir
        slow = RecordDataset(paths, read_hook=slow_store(0.01))
        pipe = PrefetchPipeline(slow, n_io_threads=1, buffer_size=1)
        for _ in pipe.batches(1, rng=np.random.default_rng(0)):
            pass  # consume instantly; the store is the bottleneck
        assert pipe.stats.consumer_wait_s > 0.01

    def test_fast_storage_hides_io(self, dataset_dir):
        """With no injected delay and slow consumption, waits are tiny
        compared to a slow-producer scenario — I/O is hidden."""
        _, paths, _, _ = dataset_dir

        def consume(pipe):
            for _ in pipe.batches(1, rng=np.random.default_rng(0)):
                time.sleep(0.001)  # "compute"
            return pipe.stats.consumer_wait_s

        fast = consume(PrefetchPipeline(RecordDataset(paths), n_io_threads=2, buffer_size=8))
        slow = consume(
            PrefetchPipeline(
                RecordDataset(paths, read_hook=slow_store(0.03)), n_io_threads=1, buffer_size=1
            )
        )
        assert fast < slow

    def test_trainer_integration(self, dataset_dir):
        """The pipeline satisfies the engine's dataset protocol, and each
        epoch's pass ends with the epoch: no I/O thread outlives the run,
        even parked at a one-file look-ahead bound."""
        import threading

        from repro.core.engine import EngineConfig, LocalBackend, TrainingEngine
        from repro.core.model import CosmoFlowModel
        from repro.core.optimizer import CosmoFlowOptimizer
        from repro.core.topology import CosmoFlowConfig, ConvSpec

        _, paths, _, _ = dataset_dir
        cfg = CosmoFlowConfig(
            name="micro4",
            input_size=4,
            conv_layers=(ConvSpec(16, 2),),
            fc_sizes=(8,),
            n_outputs=3,
        )
        model = CosmoFlowModel(cfg, seed=0)
        pipe = PrefetchPipeline(RecordDataset(paths), n_io_threads=3, buffer_size=1)
        backend = LocalBackend(model, CosmoFlowOptimizer(model.parameter_arrays()), pipe)
        hist = TrainingEngine(backend, EngineConfig(epochs=2, validate=False)).run()
        assert len(hist.train_loss) == 2
        assert all(np.isfinite(l) for l in hist.train_loss)
        assert not [t for t in threading.enumerate() if t.name.startswith("io-")]

    def test_validation_errors(self, dataset_dir):
        _, paths, _, _ = dataset_dir
        ds = RecordDataset(paths)
        with pytest.raises(ValueError):
            PrefetchPipeline(ds, n_io_threads=0)
        with pytest.raises(ValueError):
            PrefetchPipeline(ds, buffer_size=0)

    def test_early_abandon_does_not_leak_threads(self, dataset_dir):
        """Breaking out of the epoch must release the I/O threads even
        when they are parked at the look-ahead bound (the TF
        Coordinator's job)."""
        import threading

        _, paths, _, _ = dataset_dir
        before = threading.active_count()
        pipe = PrefetchPipeline(RecordDataset(paths), n_io_threads=3, buffer_size=1)
        for _ in pipe.batches(1, rng=np.random.default_rng(0)):
            break  # abandon after the first batch
        # generator close runs the cleanup; give stragglers a moment
        deadline = time.time() + 3.0
        while threading.active_count() > before and time.time() < deadline:
            time.sleep(0.05)
        assert threading.active_count() <= before

    def test_early_abandon_then_new_epoch_works(self, dataset_dir):
        _, paths, _, tgts = dataset_dir
        ds = RecordDataset(paths)
        pipe = PrefetchPipeline(ds, n_io_threads=2, buffer_size=2)
        for _ in pipe.batches(1, rng=np.random.default_rng(0)):
            break
        seen = sum(len(x) for x, _ in pipe.batches(2, rng=np.random.default_rng(1)))
        assert seen == len(tgts)

    def test_producer_error_propagates(self, dataset_dir):
        _, paths, _, _ = dataset_dir

        def boom(path, nbytes):
            raise RuntimeError("disk on fire")

        pipe = PrefetchPipeline(RecordDataset(paths, read_hook=boom), n_io_threads=2)
        with pytest.raises(RuntimeError, match="disk on fire"):
            list(pipe.batches(1))
