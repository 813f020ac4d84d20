"""The real-process communicator: layout, registry, collectives, supervision.

These tests exercise :mod:`repro.comm.process` below the engine — the
shared-memory slot codec, the crash-proof segment registry, real
cross-process collectives, and the supervisor's classification of a
SIGKILLed worker — so failures localize to the comm layer rather than
surfacing as a determinism-gate mismatch two layers up.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import signal
import sys
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.comm import ReduceOp
from repro.comm.errors import ProcessCrashError
from repro.comm.process import (
    ProcessComm,
    RankSupervisor,
    ShmLayout,
    attach_segment,
    create_segment,
    destroy_segment,
    register_segment,
    sweep_stale_segments,
    unregister_segment,
)

_MP = multiprocessing.get_context("spawn")

PAYLOAD = 1024


# ---------------------------------------------------------------------------
# Slot codec
# ---------------------------------------------------------------------------


class TestShmLayout:
    def _buffers(self, world=2):
        layout = ShmLayout(world, payload_bytes=PAYLOAD)
        return layout, bytearray(layout.data_bytes)

    @pytest.mark.parametrize(
        "array",
        [
            np.arange(12, dtype=np.float64).reshape(3, 4),
            np.arange(6, dtype=np.float32) - 2.5,
            np.array([[1, -2], [3, 4]], dtype=np.int64),
            np.array([7], dtype=np.int32),
            np.frombuffer(b"payload!", dtype=np.uint8).copy(),
            np.array([True, False, True]),
        ],
        ids=["f8", "f4", "i8", "i4", "u1", "bool"],
    )
    def test_roundtrip_preserves_dtype_shape_values(self, array):
        layout, buf = self._buffers()
        layout.write_slot(buf, 1, array)
        out = layout.read_slot(buf, 1)
        assert out.dtype == array.dtype
        assert out.shape == array.shape
        assert np.array_equal(out, array)

    def test_none_roundtrip(self):
        layout, buf = self._buffers()
        layout.write_slot(buf, 0, np.ones(3))
        layout.write_slot(buf, 0, None)
        assert layout.read_slot(buf, 0) is None

    def test_read_returns_owned_copy(self):
        layout, buf = self._buffers()
        layout.write_slot(buf, 0, np.array([1.0, 2.0]))
        first = layout.read_slot(buf, 0)
        layout.write_slot(buf, 0, np.array([9.0, 9.0]))
        assert np.array_equal(first, [1.0, 2.0])

    def test_rejects_oversized_payload(self):
        layout, buf = self._buffers()
        with pytest.raises(ValueError):
            layout.write_slot(buf, 0, np.zeros(PAYLOAD, dtype=np.float64))

    def test_slots_are_independent(self):
        layout, buf = self._buffers(world=3)
        for r in range(3):
            layout.write_slot(buf, r, np.full(2, float(r)))
        for r in range(3):
            assert np.array_equal(layout.read_slot(buf, r), [r, r])


# ---------------------------------------------------------------------------
# Segment registry
# ---------------------------------------------------------------------------


def _noop():
    pass


class TestSegmentRegistry:
    def test_register_unregister_lifecycle(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path))
        path = register_segment("test-seg-a")
        assert json.loads(path.read_text()) == {"name": "test-seg-a", "pid": os.getpid()}
        unregister_segment("test-seg-a")
        assert not path.exists()
        unregister_segment("test-seg-a")  # idempotent

    def test_sweep_reclaims_dead_owner_segment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path))
        seg = shared_memory.SharedMemory(create=True, size=64)
        name = seg.name
        # A registry record owned by a pid that is certainly dead: a
        # child we spawned and already reaped.
        child = _MP.Process(target=_noop)
        child.start()
        child.join()
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"name": name, "pid": child.pid})
        )
        seg.close()
        assert sweep_stale_segments() == [name]
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        assert not list(tmp_path.glob("*.json"))

    def test_sweep_spares_live_owner(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path))
        seg = create_segment(64)
        try:
            assert sweep_stale_segments() == []
            # Still attachable: the registry record names a live pid.
            other = attach_segment(seg.name)
            other.close()
        finally:
            destroy_segment(seg)
        assert not list(tmp_path.glob("*.json"))

    def test_sweep_ignores_unparseable_records(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path))
        (tmp_path / "junk.json").write_text("not json at all")
        assert sweep_stale_segments() == []
        assert (tmp_path / "junk.json").exists()


# ---------------------------------------------------------------------------
# Real cross-process collectives
# ---------------------------------------------------------------------------


def _make_group(world, quorum=None):
    layout = ShmLayout(world, payload_bytes=PAYLOAD)
    ctrl_seg = create_segment(layout.ctrl_bytes)
    data_seg = create_segment(layout.data_bytes)
    ctrl = layout.ctrl_view(ctrl_seg.buf)
    layout.init_ctrl(ctrl, quorum=quorum if quorum is not None else world, spares=0)
    return layout, ctrl_seg, data_seg, ctrl


def _collective_worker(rank, world, ctrl_name, data_name, run_dir):
    ctrl_seg = attach_segment(ctrl_name)
    data_seg = attach_segment(data_name)
    try:
        layout = ShmLayout(world, payload_bytes=PAYLOAD)
        comm = ProcessComm(
            rank, layout, layout.ctrl_view(ctrl_seg.buf), data_seg.buf,
            timeout_s=20.0, run_dir=run_dir,
        )
        total = comm.allreduce(np.full(3, float(rank + 1)), op=ReduceOp.SUM)
        assert np.array_equal(total, np.full(3, world * (world + 1) / 2.0))
        mean = comm.allreduce(np.arange(4.0) + rank, op=ReduceOp.MEAN)
        assert np.array_equal(mean, np.arange(4.0) + (world - 1) / 2.0)
        got = comm.bcast(np.array([7.5, -2.0]) if rank == 0 else None, root=0)
        assert np.array_equal(got, [7.5, -2.0])
        comm.allreduce(np.zeros(1))  # every rank arrives before any is done
        assert comm.last_members == frozenset(range(world))
        comm.mark_done()
    finally:
        ctrl_seg.close()
        data_seg.close()


def _crash_worker(rank, world, ctrl_name, data_name, run_dir):
    ctrl_seg = attach_segment(ctrl_name)
    data_seg = attach_segment(data_name)
    try:
        layout = ShmLayout(world, payload_bytes=PAYLOAD)
        comm = ProcessComm(
            rank, layout, layout.ctrl_view(ctrl_seg.buf), data_seg.buf,
            timeout_s=20.0, run_dir=run_dir,
        )
        if rank == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        # Survivor: wait for the supervisor to notice the corpse, however
        # long rank 1 takes to start on a loaded host (no clock of its own;
        # an orphan stops waiting).
        parent = os.getppid()
        while 1 in comm.active_ranks and os.getppid() == parent:
            time.sleep(0.01)
        comm.mark_done()
        sys.exit(0 if 1 not in comm.active_ranks else 9)
    finally:
        ctrl_seg.close()
        data_seg.close()


class TestProcessCollectives:
    def test_collectives_across_real_processes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path / "registry"))
        world = 2
        layout, ctrl_seg, data_seg, ctrl = _make_group(world)
        procs = []
        try:
            for r in range(world):
                p = _MP.Process(
                    target=_collective_worker,
                    args=(r, world, ctrl_seg.name, data_seg.name, str(tmp_path)),
                )
                p.start()
                procs.append(p)
            for p in procs:
                p.join(timeout=120)
            assert [p.exitcode for p in procs] == [0, 0]
        finally:
            for p in procs:
                if p.exitcode is None:
                    p.kill()
            destroy_segment(ctrl_seg)
            destroy_segment(data_seg)
        # Both segments unlinked and unregistered: nothing to sweep.
        assert sweep_stale_segments() == []
        assert not list((tmp_path / "registry").glob("*.json"))


class TestRankSupervisor:
    def test_sigkill_classified_with_signal_name(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path / "registry"))
        world = 2
        layout, ctrl_seg, data_seg, ctrl = _make_group(world, quorum=1)

        def spawn(rank, incarnation):
            p = _MP.Process(
                target=_crash_worker,
                args=(rank, world, ctrl_seg.name, data_seg.name, str(tmp_path)),
            )
            p.start()
            return p

        # Exit classification is under test, not hang detection.  The
        # supervisor times a heartbeat stall (default 4 * timeout_s = 20 s)
        # from its own first poll, not from the worker's first beat, and the
        # survivor never beats while it waits: on a loaded host rank 1's
        # spawn can outlast that, rank 0 is evicted as hung, rank 1 then dies
        # and "quorum lost: 0 survivors < quorum 1".  No stall timer here.
        sup = RankSupervisor(
            layout, ctrl, spawn, timeout_s=5.0, heartbeat_timeout_s=math.inf
        )
        try:
            sup.launch(range(world))
            deadline = time.monotonic() + 120
            while not sup.finished() and time.monotonic() < deadline:
                sup.poll()
                time.sleep(0.01)
            sup.poll()
            assert set(sup.failures) == {1}
            err = sup.failures[1]
            assert isinstance(err, ProcessCrashError)
            assert "SIGKILL" in str(err)
            assert sup.kill_counts == {"SIGKILL": 1}
            stats = sup.stats()
            assert stats["failed_ranks"] == [1]
            assert stats["survivors"] == [0]
            assert sup.exit_codes[(0, 0)] == 0
            assert not sup.quorum_lost
        finally:
            sup.shutdown(deadline_s=5.0)
            destroy_segment(ctrl_seg)
            destroy_segment(data_seg)
        assert sup.live_count() == 0
        assert sweep_stale_segments() == []

    def test_shutdown_reaps_stragglers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path / "registry"))
        world = 1
        layout, ctrl_seg, data_seg, ctrl = _make_group(world)

        def spawn(rank, incarnation):
            p = _MP.Process(target=time.sleep, args=(600,))
            p.start()
            return p

        sup = RankSupervisor(layout, ctrl, spawn, timeout_s=5.0)
        try:
            sup.launch(range(world))
            assert sup.live_count() == 1
            sup.shutdown(deadline_s=5.0)
            assert sup.live_count() == 0
        finally:
            sup.shutdown(deadline_s=1.0)
            destroy_segment(ctrl_seg)
            destroy_segment(data_seg)
