"""Tests for the resilient burst-buffer staging tier."""

import mmap
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.io.staging as staging_module
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.io.dataset import RecordDataset, write_dataset
from repro.io.pipeline import PrefetchPipeline
from repro.io.staging import (
    RETRY,
    BreakerState,
    CircuitBreaker,
    StagingConfig,
    StagingManager,
)
from repro.utils.rng import derive_seed


@pytest.fixture()
def record_files(tmp_path):
    rng = np.random.default_rng(0)
    vols = rng.standard_normal((12, 1, 4, 4, 4)).astype(np.float32)
    tgts = rng.random((12, 3)).astype(np.float32)
    return write_dataset(tmp_path / "src", vols, tgts, samples_per_file=4)


def make_manager(tmp_path, name="bb", injector=None, **cfg):
    return StagingManager(
        tmp_path / name,
        config=StagingConfig(**cfg),
        seed=7,
        injector=injector,
    )


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        b = CircuitBreaker("t", threshold=3, reset_s=10.0)
        b.record_failure(0.0)
        b.record_failure(0.0)
        assert b.state is BreakerState.CLOSED and b.allow(0.0)
        b.record_failure(0.0)
        assert b.state is BreakerState.OPEN and b.trips == 1
        assert not b.allow(5.0)

    def test_success_resets_consecutive_count(self):
        b = CircuitBreaker("t", threshold=2, reset_s=10.0)
        b.record_failure(0.0)
        b.record_success()
        b.record_failure(0.0)
        assert b.state is BreakerState.CLOSED

    def test_half_open_after_cooldown_then_close_on_success(self):
        b = CircuitBreaker("t", threshold=1, reset_s=5.0)
        b.record_failure(0.0)
        assert b.state is BreakerState.OPEN
        assert b.allow(6.0)  # past cooldown: admits one probe
        assert b.state is BreakerState.HALF_OPEN and b.half_opens == 1
        b.record_success()
        assert b.state is BreakerState.CLOSED

    def test_half_open_probe_failure_retrips(self):
        b = CircuitBreaker("t", threshold=3, reset_s=5.0)
        for _ in range(3):
            b.record_failure(0.0)
        assert b.allow(6.0)
        b.record_failure(6.0)  # probe failed: immediate re-trip
        assert b.state is BreakerState.OPEN and b.trips == 2
        assert not b.allow(7.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("t", threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("t", reset_s=-1.0)


class TestStageIn:
    def test_stage_and_bitwise_read(self, tmp_path, record_files):
        mgr = make_manager(tmp_path)
        assert mgr.stage_all(record_files) == len(record_files)
        assert all(mgr.is_staged(p) for p in record_files)
        staged = RecordDataset(record_files, staging=mgr).to_arrays()
        direct = RecordDataset(record_files).to_arrays()
        np.testing.assert_array_equal(staged[0], direct[0])
        np.testing.assert_array_equal(staged[1], direct[1])
        assert mgr.stats.bb_reads == len(record_files)
        assert mgr.stats.fallback_reads == 0

    def test_transient_stage_fail_retried(self, tmp_path, record_files):
        inj = FaultInjector(
            FaultPlan(seed=0, events=(FaultEvent(FaultKind.STAGE_FAIL, step=0),))
        )
        mgr = make_manager(tmp_path, injector=inj)
        assert mgr.stage(record_files[0])
        assert mgr.stats.stage_retries == 1
        assert mgr.stats.stage_failures == 0

    def test_persistent_stage_fail_degrades_to_backing(self, tmp_path, record_files):
        inj = FaultInjector(
            FaultPlan(
                seed=0,
                events=tuple(
                    FaultEvent(FaultKind.STAGE_FAIL, step=i, repeats=10) for i in range(2)
                ),
            )
        )
        mgr = make_manager(tmp_path, injector=inj)
        assert not mgr.stage(record_files[0])
        assert mgr.stats.stage_failures == 1
        # The file is still readable — the miss's stage-in fails too, and
        # the read is served degraded from backing.
        res = mgr.read(record_files[0])
        assert res.tier == "backing" and res.path == record_files[0]
        assert mgr.stats.stage_failures == 2
        assert mgr.stats.fallback_reads == 1

    def test_capacity_lru_eviction(self, tmp_path, record_files):
        nbytes = record_files[0].stat().st_size
        mgr = make_manager(tmp_path, capacity_bytes=2 * nbytes + 1)
        mgr.stage_all(record_files)  # 3 files, room for 2
        assert mgr.staged_bytes <= 2 * nbytes + 1
        assert not mgr.is_staged(record_files[0])  # oldest evicted
        assert mgr.stats.capacity_evictions == 1

    def test_a_reread_file_is_not_the_one_evicted(self, tmp_path, record_files):
        """Recency is the order of reads, not of stage-ins: the file read
        again just before the buffer fills stays, the other one goes."""
        f0, f1, f2 = record_files
        mgr = make_manager(tmp_path, capacity_bytes=2 * f0.stat().st_size + 1)
        for source in (f0, f1, f0, f2):
            assert mgr.read(source).tier == "bb"
        assert [e for e in mgr.events if e.startswith("lru-evict")] == [f"lru-evict:{f1.name}"]
        assert mgr.is_staged(f0) and not mgr.is_staged(f1) and mgr.is_staged(f2)


class TestLandingVerification:
    """A copy that lands in the burst buffer differing from the bytes
    read from the source — by a single byte, anywhere — never gets the
    final name."""

    @pytest.fixture(scope="class")
    def source(self, tmp_path_factory):
        rng = np.random.default_rng(1)
        vols = rng.standard_normal((4, 1, 4, 4, 4)).astype(np.float32)
        tgts = rng.random((4, 3)).astype(np.float32)
        (path,) = write_dataset(tmp_path_factory.mktemp("landing-src"), vols, tgts, samples_per_file=4)
        return path

    @staticmethod
    def damaged_landings(mp, bb_dir, offset, times):
        """The next ``times`` files written into ``bb_dir`` land with the
        byte at ``offset`` flipped; returns what the directory held at
        each of those writes."""
        real_write = Path.write_bytes
        listings = []

        def write_bytes(self, data):
            if self.parent == bb_dir and len(listings) < times:
                listings.append(sorted(os.listdir(bb_dir)))
                data = bytearray(data)
                data[offset % len(data)] ^= 0x01
            return real_write(self, data)

        mp.setattr(Path, "write_bytes", write_bytes)
        return listings

    @given(offset=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_one_differing_byte_is_retried(self, tmp_path_factory, source, offset):
        mgr = make_manager(tmp_path_factory.mktemp("landing"))
        with pytest.MonkeyPatch.context() as mp:
            listings = self.damaged_landings(mp, mgr.bb_dir, offset, times=2)
            assert mgr.stage(source)
        # Each failed attempt removed its file before the next began.
        assert listings == [[], []]
        assert mgr.stats.stage_retries == 2
        assert mgr.stats.stage_failures == 0
        assert mgr.stats.stage_ins == 1
        assert os.listdir(mgr.bb_dir) == [source.name]
        assert (mgr.bb_dir / source.name).read_bytes() == source.read_bytes()

    @given(offset=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_persistent_difference_degrades_to_backing(self, tmp_path_factory, source, offset):
        mgr = make_manager(tmp_path_factory.mktemp("landing"))
        attempts = RETRY.max_attempts
        with pytest.MonkeyPatch.context() as mp:
            self.damaged_landings(mp, mgr.bb_dir, offset, times=2 * attempts)
            assert not mgr.stage(source)
            assert mgr.stats.stage_retries == attempts - 1
            assert mgr.stats.stage_failures == 1
            assert mgr.events == [f"stage-fail:{source.name}"]
            assert mgr.breaker(mgr.target_of(source)).consecutive_failures == 1
            assert os.listdir(mgr.bb_dir) == []
            # The read's own stage-in lands damaged as well.
            res = mgr.read(source)
        assert res.tier == "backing" and res.path == source
        assert mgr.stats.stage_failures == 2
        assert mgr.stats.fallback_reads == 1
        assert os.listdir(mgr.bb_dir) == []

    def test_stage_error_says_what_was_compared(self, tmp_path, source):
        mgr = make_manager(tmp_path)
        with pytest.MonkeyPatch.context() as mp:
            self.damaged_landings(mp, mgr.bb_dir, 0, times=1)
            with pytest.raises(staging_module.StageError, match="read back.*differ"):
                mgr._stage_once(source, 0)

    def test_crash_between_write_and_rename_leaves_no_final_name(self, tmp_path, source):
        class Crash(BaseException):
            pass

        def crash(src, dst):
            assert Path(src).read_bytes() == source.read_bytes()  # written, verified
            raise Crash

        mgr = make_manager(tmp_path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(staging_module.os, "replace", crash)
            with pytest.raises(Crash):
                mgr.stage(source)
        assert os.listdir(mgr.bb_dir) == []
        assert not mgr.is_staged(source)
        assert mgr.stage(source)

    def test_restaging_never_rewrites_a_file_in_place(self, tmp_path, record_files):
        """A second writer of the same name (another rank's manager on
        the shared allocation) replaces the file; a reader still holding
        the first copy's mapping keeps reading the first copy."""
        first = make_manager(tmp_path)
        ds = RecordDataset(record_files, staging=first)
        direct = RecordDataset(record_files).to_arrays()
        epoch = ds.batches(1, shuffle=False)
        head = next(epoch)  # the generator now holds file 0's mapped samples
        dest = first.bb_dir / record_files[0].name
        inode = dest.stat().st_ino
        second = make_manager(tmp_path)
        assert second.stage(record_files[0])
        assert dest.stat().st_ino != inode
        batches = [head, *epoch]
        np.testing.assert_array_equal(np.concatenate([x for x, _ in batches]), direct[0])


class TestLazyVisitRng:
    """Reads and stage-ins share each file's visit count, which seeds a
    stage-in's retry jitter; the generator is built only on a retry."""

    def run(self, tmp_path, record_files, tag, faults):
        plan = FaultPlan.sample(
            5, 1, 0,
            stage_fail_rate=0.3, n_stage_ops=30,
            target_slow_rate=0.3, target_slow_s=0.2,
            bb_evict_rate=0.1, n_staged_reads=30,
        )
        mgr = StagingManager(
            tmp_path / f"bb-{tag}",
            config=StagingConfig(
                hedge_budget_s=0.05, breaker_threshold=2, breaker_reset_s=0.5
            ),
            seed=9,
            injector=FaultInjector(plan) if faults else None,
        )
        mgr.stage_all(record_files)
        ds = RecordDataset(record_files, strict=False, staging=mgr)
        for epoch in range(3):
            for _ in ds.batches(2, rng=np.random.default_rng(epoch)):
                pass
        return mgr

    def test_every_read_takes_a_visit(self, tmp_path, record_files):
        mgr = self.run(tmp_path, record_files, "plain", faults=False)
        # One stage-in, then one read per epoch.
        assert mgr._visits == {path: 4 for path in record_files}

    def test_no_generator_without_a_draw(self, tmp_path, record_files, monkeypatch):
        built = []
        real = staging_module.new_rng
        monkeypatch.setattr(staging_module, "new_rng", lambda seed: built.append(seed) or real(seed))
        self.run(tmp_path, record_files, "plain", faults=False)
        assert built == []
        mgr = self.run(tmp_path, record_files, "faults", faults=True)
        assert 0 < len(built) <= mgr.stats.stage_retries
        visits = {
            derive_seed(9, "stage", path.name, visit)
            for path in record_files
            for visit in range(mgr._visits[path])
        }
        assert set(built) <= visits


class TestReadLadder:
    def test_miss_stages_on_demand(self, tmp_path, record_files):
        mgr = make_manager(tmp_path)
        res = mgr.read(record_files[0])
        assert res.tier == "bb" and mgr.is_staged(record_files[0])

    def test_bb_evict_then_restage(self, tmp_path, record_files):
        inj = FaultInjector(
            FaultPlan(seed=0, events=(FaultEvent(FaultKind.BB_EVICT, step=1),))
        )
        mgr = make_manager(tmp_path, injector=inj)
        mgr.stage_all(record_files)
        mgr.read(record_files[0])  # read 0: fine
        res = mgr.read(record_files[1])  # read 1: allocation evicted first
        assert mgr.stats.evictions == 1
        # The miss restaged the file being read.
        assert res.tier == "bb"
        assert mgr.stats.stage_ins == len(record_files) + 1

    def test_target_slow_triggers_hedge(self, tmp_path, record_files):
        inj = FaultInjector(
            FaultPlan(
                seed=0,
                events=(FaultEvent(FaultKind.TARGET_SLOW, step=0, delay_s=0.5),),
            )
        )
        mgr = make_manager(tmp_path, injector=inj, hedge_budget_s=0.05)
        mgr.stage_all(record_files)
        res = mgr.read(record_files[0])
        assert mgr.stats.hedged_reads == 1
        assert mgr.stats.hedge_wins == 1  # the backing duplicate, issued at the budget
        assert res.tier == "hedge" and res.path == record_files[0]

    def test_repeated_slow_target_trips_breaker_then_half_opens(
        self, tmp_path, record_files
    ):
        path = record_files[0]
        events = tuple(
            FaultEvent(FaultKind.TARGET_SLOW, step=i, delay_s=0.5) for i in range(2)
        )
        inj = FaultInjector(FaultPlan(seed=0, events=events))
        mgr = make_manager(
            tmp_path,
            injector=inj,
            hedge_budget_s=0.05,
            breaker_threshold=2,
            breaker_reset_s=0.4,
        )
        mgr.stage(path)
        target = mgr.target_of(path)
        mgr.read(path)
        assert mgr.breaker(target).state is BreakerState.CLOSED
        mgr.read(path)  # second over-budget read trips the breaker
        assert mgr.breaker(target).state is BreakerState.OPEN
        assert mgr.stats.breaker_trips == 1
        # While OPEN (within cooldown) reads fall back to backing.
        res = mgr.read(path)
        assert res.tier == "backing" and mgr.stats.fallback_reads == 1
        # The hedged reads advanced the virtual clock 0.05s each; push
        # past the cooldown and the breaker half-opens, probes, closes.
        mgr._advance(0.5)
        res = mgr.read(path)
        assert res.tier == "bb"
        assert mgr.stats.breaker_half_opens == 1
        assert mgr.breaker(target).state is BreakerState.CLOSED

    def test_read_never_raises_for_tier_trouble(self, tmp_path, record_files):
        events = tuple(
            FaultEvent(FaultKind.STAGE_FAIL, step=i, repeats=10) for i in range(20)
        ) + tuple(FaultEvent(FaultKind.BB_EVICT, step=i) for i in range(10))
        inj = FaultInjector(FaultPlan(seed=0, events=events))
        mgr = make_manager(tmp_path, injector=inj)
        for path in record_files * 2:
            res = mgr.read(path)
            assert res.path.exists()
        assert mgr.stats.fallback_reads > 0


class TestQuarantine:
    def corrupt_bb_copy(self, mgr, source):
        entry = mgr._staged[source]
        data = bytearray(entry.path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        entry.path.write_bytes(bytes(data))

    def test_corrupt_staged_copy_quarantined_and_restaged(
        self, tmp_path, record_files
    ):
        mgr = make_manager(tmp_path)
        mgr.stage_all(record_files)
        self.corrupt_bb_copy(mgr, record_files[0])
        ds = RecordDataset(record_files, staging=mgr)  # strict!
        staged = ds.to_arrays()
        direct = RecordDataset(record_files).to_arrays()
        np.testing.assert_array_equal(staged[0], direct[0])
        assert mgr.stats.quarantined == 1
        assert mgr.stats.restages == 1
        assert ds.records_skipped == 0
        assert (mgr.quarantine_dir.exists()
                and len(list(mgr.quarantine_dir.iterdir())) == 1)

    def test_nonstrict_corrupt_bb_copy_also_healed(self, tmp_path, record_files):
        mgr = make_manager(tmp_path)
        mgr.stage_all(record_files)
        self.corrupt_bb_copy(mgr, record_files[0])
        ds = RecordDataset(record_files, strict=False, staging=mgr)
        x, y = ds.to_arrays()
        assert len(x) == 12  # nothing lost: the source was clean
        assert ds.records_skipped == 0
        assert mgr.stats.quarantined == 1


class TestDeterminism:
    def run_once(self, tmp_path, record_files, tag):
        plan = FaultPlan.sample(
            5, 1, 0,
            stage_fail_rate=0.3, n_stage_ops=30,
            target_slow_rate=0.3, target_slow_s=0.2,
            bb_evict_rate=0.1, n_staged_reads=30,
        )
        mgr = StagingManager(
            tmp_path / f"bb-{tag}",
            config=StagingConfig(
                hedge_budget_s=0.05, breaker_threshold=2, breaker_reset_s=0.5
            ),
            seed=9,
            injector=FaultInjector(plan),
        )
        mgr.stage_all(record_files)
        ds = RecordDataset(record_files, strict=False, staging=mgr)
        pipe = PrefetchPipeline(ds, n_io_threads=1, buffer_size=4)
        batches = [
            (x.copy(), y.copy())
            for x, y in pipe.batches(2, rng=np.random.default_rng(3))
        ]
        return mgr, batches

    def test_same_seed_same_decisions_and_data(self, tmp_path, record_files):
        mgr_a, batches_a = self.run_once(tmp_path, record_files, "a")
        mgr_b, batches_b = self.run_once(tmp_path, record_files, "b")
        assert mgr_a.events == mgr_b.events
        assert mgr_a.stats.as_dict() == mgr_b.stats.as_dict()
        assert len(batches_a) == len(batches_b)
        for (xa, ya), (xb, yb) in zip(batches_a, batches_b):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)


class TestPipelineIntegration:
    def test_staging_counters_reach_pipeline_stats(self, tmp_path, record_files):
        events = (
            FaultEvent(FaultKind.TARGET_SLOW, step=0, delay_s=0.5),
            FaultEvent(FaultKind.STAGE_FAIL, step=1),
        )
        inj = FaultInjector(FaultPlan(seed=0, events=events))
        mgr = make_manager(tmp_path, injector=inj, hedge_budget_s=0.05)
        ds = RecordDataset(record_files, strict=False, staging=mgr)
        pipe = PrefetchPipeline(ds, n_io_threads=1, buffer_size=4)
        for _ in pipe.batches(2, rng=np.random.default_rng(1)):
            pass
        assert pipe.stats.hedged_reads == 1
        assert pipe.stats.stage_retries == 1
        assert pipe.stats.degraded_total() >= 2

    def test_shard_shares_staging_manager(self, tmp_path, record_files):
        mgr = make_manager(tmp_path)
        ds = RecordDataset(record_files, staging=mgr)
        shard = ds.shard(0, 2)
        assert shard.staging is mgr
        shard.to_arrays()
        assert mgr.stats.bb_reads > 0


class TestEvictedBetweenResolveAndOpen:
    """A staged copy that is gone when the reader comes to open it was
    evicted by someone else's stage-in: a degraded read, not an error."""

    def test_the_read_falls_back_to_the_source(self, tmp_path, record_files):
        mgr = make_manager(tmp_path)
        mgr.stage_all(record_files)
        # The hook runs after the read is resolved and before the file
        # is opened — where another reader's eviction lands.
        ds = RecordDataset(
            record_files, staging=mgr, read_hook=lambda path, nbytes: mgr.evict_all()
        )
        direct_x, direct_y = RecordDataset(record_files).to_arrays()
        x, y = ds.to_arrays()
        np.testing.assert_array_equal(x, direct_x)
        np.testing.assert_array_equal(y, direct_y)
        assert mgr.stats.fallback_reads == len(record_files)
        assert mgr.events.count("fallback:" + record_files[0].name) == 1

    def test_a_missing_source_is_still_an_error(self, tmp_path, record_files):
        ds = RecordDataset(record_files)
        record_files[0].unlink()
        with pytest.raises(FileNotFoundError):
            ds.to_arrays()

    def test_two_rank_threads_share_a_full_buffer(self, tmp_path, record_files):
        """Each rank's stage-in evicts the other's copy (capacity: one
        file), as under ``ThreadedBackend`` over a staged dataset."""
        import sys
        import threading

        mgr = make_manager(tmp_path, capacity_bytes=record_files[0].stat().st_size)
        ds = RecordDataset(record_files * 4, staging=mgr)
        delivered, errors = [0, 0], []

        def rank(r):
            try:
                for seed in range(10):
                    delivered[r] += sum(len(x) for x, _ in ds.shard(r, 2).batches(4, rng=seed))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=rank, args=(r,)) for r in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert delivered == [240, 240]


class TestFaultPlanSampling:
    def test_sample_draws_storage_kinds(self):
        plan = FaultPlan.sample(
            3, 1, 0,
            stage_fail_rate=0.5, n_stage_ops=40, stage_fail_repeats=2,
            target_slow_rate=0.5, bb_evict_rate=0.2, n_staged_reads=40,
        )
        kinds = {e.kind for e in plan.events}
        assert FaultKind.STAGE_FAIL in kinds
        assert FaultKind.TARGET_SLOW in kinds
        assert FaultKind.BB_EVICT in kinds
        assert all(
            e.repeats == 2 for e in plan.of_kind(FaultKind.STAGE_FAIL)
        )

    def test_sample_validation(self):
        with pytest.raises(ValueError, match="stage_fail_rate"):
            FaultPlan.sample(0, 1, 0, stage_fail_rate=1.5)
        with pytest.raises(ValueError, match="stage_fail_repeats"):
            FaultPlan.sample(0, 1, 0, stage_fail_repeats=0)

    def test_target_slow_can_pin_a_target(self):
        inj = FaultInjector(
            FaultPlan(
                seed=0,
                events=(
                    FaultEvent(FaultKind.TARGET_SLOW, rank=2, step=0, delay_s=0.3),
                ),
            )
        )
        # Read 0 hits target 1: the pinned event does not fire.
        delay, evict = inj.on_staged_read("x", target=1)
        assert delay == 0.0 and not evict
        # It stays pending for a later read on target 2.
        delay, _ = inj.on_staged_read("x", target=2)
        assert delay == 0.0  # step moved past 0 — event keyed to read 0


class TestEveryByteOnce:
    """One bench-shaped epoch — a fresh tier at half the dataset's size,
    the dataset's index pass, a shuffled batch-4 read — checksums the
    dataset twice (source at index, staged copy at read) and copies each
    volume once, from the staged file's mapping into its batch."""

    @pytest.fixture()
    def shards(self, tmp_path):
        rng = np.random.default_rng(2)
        vols = rng.standard_normal((128, 1, 16, 16, 16)).astype(np.float32)
        tgts = rng.random((128, 3)).astype(np.float32)
        return write_dataset(tmp_path / "src", vols, tgts, samples_per_file=8), vols

    def test_epoch_checksums_the_dataset_twice(self, tmp_path, shards, checksummed):
        paths, vols = shards
        dataset_bytes = sum(p.stat().st_size for p in paths)
        mgr = make_manager(tmp_path, capacity_bytes=dataset_bytes // 2)
        ds = RecordDataset(paths, staging=mgr)
        n = sum(len(x) for x, _ in ds.batches(4, rng=np.random.default_rng(0)))
        assert n == len(vols)
        assert mgr.stats.stage_ins == len(paths)
        assert mgr.stats.capacity_evictions == len(paths) // 2
        assert mgr.stats.fallback_reads == 0
        # (the CRC fields themselves are not checksummed, hence just under 2)
        assert 1.95 <= sum(checksummed) / dataset_bytes <= 2.05

    def test_volume_goes_from_mapping_to_batch_in_one_copy(self, tmp_path, shards):
        paths, vols = shards
        mgr = make_manager(tmp_path)
        ds = RecordDataset(paths, staging=mgr)
        # File to decoded sample: no copy, the arrays are the mapping.
        for v, t in ds._load_file(paths[0]):
            root = v
            while isinstance(root, np.ndarray):
                assert not root.flags.owndata and not root.flags.writeable
                root = root.base
            assert isinstance(root.obj, mmap.mmap)
        # Sample to batch: the one copy, into memory the batch owns.
        (bx, by), *_ = ds.batches(4, shuffle=False)
        assert bx.flags.owndata and bx.flags.writeable and bx.shape == (4, 1, 16, 16, 16)
        np.testing.assert_array_equal(bx, vols[:4])


class TestBatchOwnership:
    """Batches belong to the consumer whatever happens to the files."""

    def test_batches_are_writable_and_disjoint(self, tmp_path, record_files):
        direct = RecordDataset(record_files).to_arrays()
        ds = RecordDataset(record_files, staging=make_manager(tmp_path))
        batches = list(ds.batches(5, shuffle=False))  # 12 samples: 5 + 5 + 2
        arrays = [a for b in batches for a in b]
        for i, a in enumerate(arrays):
            assert a.flags.writeable
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])
            a[...] = -7.0
        again = list(ds.batches(5, shuffle=False))
        np.testing.assert_array_equal(np.concatenate([x for x, _ in again]), direct[0])
        np.testing.assert_array_equal(np.concatenate([y for _, y in again]), direct[1])

    def test_batches_outlive_eviction_and_unlink(self, tmp_path, record_files):
        direct = RecordDataset(record_files).to_arrays()
        nbytes = record_files[0].stat().st_size
        mgr = make_manager(tmp_path, capacity_bytes=nbytes)  # room for one file
        ds = RecordDataset(record_files, staging=mgr)
        # batch 3 over files of 4: batches straddle an LRU eviction
        batches = list(ds.batches(3, shuffle=False))
        assert mgr.stats.capacity_evictions == len(record_files) - 1
        mgr.evict_all()
        del ds
        assert [p.name for p in mgr.bb_dir.iterdir()] == []
        np.testing.assert_array_equal(np.concatenate([x for x, _ in batches]), direct[0])
        np.testing.assert_array_equal(np.concatenate([y for _, y in batches]), direct[1])

    def test_samples_in_hand_survive_quarantine_and_restage(self, tmp_path, record_files):
        direct = RecordDataset(record_files).to_arrays()
        mgr = make_manager(tmp_path)
        ds = RecordDataset(record_files, staging=mgr)
        epoch = ds.batches(1, shuffle=False)
        head = next(epoch)  # the rest of file 0 is held as mapped views
        resolved = mgr.handle_corrupt(record_files[0])
        assert resolved.tier == "bb" and mgr.stats.quarantined == mgr.stats.restages == 1
        (quarantined,) = mgr.quarantine_dir.iterdir()
        quarantined.unlink()
        batches = [head, *epoch]
        np.testing.assert_array_equal(np.concatenate([x for x, _ in batches]), direct[0])
        np.testing.assert_array_equal(np.concatenate([y for _, y in batches]), direct[1])
