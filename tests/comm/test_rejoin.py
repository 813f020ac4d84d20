"""Tests for the grow-back (rank rejoin / warm spare) protocol.

These exercise the admission machinery directly — including the races
the protocol must survive: admission racing eviction in the same
generation, quorum loss while a resync is in flight, a spare joining
while peers already wait inside a pending collective, and stale threads
of a readmitted rank being fenced by incarnation numbers.
"""

import threading
import time

import numpy as np
import pytest

from repro.comm.communicator import ReduceOp
from repro.comm.elastic import ElasticComm, ThreadedGroup, _ElasticState
from repro.comm.errors import (
    MessageCorruptError,
    QuorumLostError,
    RankEvictedError,
)
from repro.faults import FaultEvent, FaultKind


def make_state(size=4, quorum=1, spares=0, with_spawner=True, **kw):
    st = _ElasticState(size, timeout_s=5.0, quorum=quorum, spares=spares, **kw)
    spawned = []
    if with_spawner:
        st.spawn_joiner = lambda rank, inc: spawned.append((rank, inc))
    return st, spawned


def payload_for(rank):
    return {"flat": np.arange(8, dtype=np.float64) + rank, "step": np.int64(rank)}


class TestAdmissionProtocol:
    def test_recovered_rank_rejoins_and_participates(self):
        """End-to-end: a crashed rank is readmitted by a survivor and
        contributes from the very step it was admitted at."""
        g = ThreadedGroup(3, timeout_s=5.0, quorum=1)

        def body(comm):
            out = []
            for step in range(6):
                if comm.rank == 2 and step == 1:
                    raise RuntimeError("rank 2 down")
                if comm.rank == 0 and step == 3:
                    assert comm.admit(2, payload_for(2))
                out.append(comm.allreduce(np.array([1.0]), ReduceOp.SUM)[0])
            return out

        def joiner(comm):
            payload = comm.await_admission()
            np.testing.assert_array_equal(payload["flat"], payload_for(2)["flat"])
            return [comm.allreduce(np.array([1.0]), ReduceOp.SUM)[0] for _ in range(3)]

        results = g.run(body, joiner_fn=joiner)
        # Steps: 0 full (3), 1-2 shrunk (2), 3-5 grown back (3).
        assert results[0] == [3.0, 2.0, 2.0, 3.0, 3.0, 3.0]
        assert results[1] == results[0]
        # The joiner's result replaces the dead rank's None entry.
        assert results[2] == [3.0, 3.0, 3.0]
        assert g.active_ranks == [0, 1, 2]
        stats = g.stats()
        assert stats["rejoins"] == [2]
        assert stats["resyncs"] == 1
        assert stats["resync_bytes"] > 0

    def test_spare_joins_while_peers_wait_in_pending_collective(self):
        """Admission lands inside an already-pending collective: the
        group must wait for the joiner's first contribution."""
        g = ThreadedGroup(3, timeout_s=5.0, quorum=1, spares=1, auto_respawn=False)
        admitted = threading.Event()

        def body(comm):
            out = []
            for step in range(3):
                if comm.rank == 2 and step == 0:
                    raise RuntimeError("down")
                if step == 1 and comm.rank == 0:
                    # Let rank 1 enter the collective and block first,
                    # then admit the spare before contributing.
                    time.sleep(0.15)
                    assert comm.admit(2, payload_for(2), spare=True)
                    admitted.set()
                out.append(comm.allreduce(np.array([1.0]), ReduceOp.SUM)[0])
            return out

        def joiner(comm):
            comm.await_admission()
            return [comm.allreduce(np.array([1.0]), ReduceOp.SUM)[0] for _ in range(2)]

        results = g.run(body, joiner_fn=joiner)
        assert admitted.is_set()
        # Step 1's sum is 3.0: the collective rank 1 was already waiting
        # in did not finish until the freshly admitted spare contributed.
        assert results[0] == [2.0, 3.0, 3.0]
        assert results[1] == [2.0, 3.0, 3.0]
        assert results[2] == [3.0, 3.0]

    def test_admission_refused_without_joiner_body(self):
        st, _ = make_state(with_spawner=False)
        st.active.discard(2)
        with st.cond:
            assert not st.admit_locked(2, payload_for(2), spare=False)
        assert 2 not in st.active

    def test_admission_refused_for_active_or_bogus_ranks(self):
        st, spawned = make_state()
        with st.cond:
            assert not st.admit_locked(1, payload_for(1), spare=False)  # active
            assert not st.admit_locked(7, payload_for(7), spare=False)  # range
            assert not st.admit_locked(-1, payload_for(0), spare=False)
        st.active.discard(2)
        with st.cond:
            assert st.admit_locked(2, payload_for(2), spare=False)
            assert not st.admit_locked(2, payload_for(2), spare=False)  # joining
        assert spawned == [(2, 1)]

    def test_resync_payload_is_deep_copied(self):
        st, _ = make_state()
        st.active.discard(2)
        payload = payload_for(2)
        with st.cond:
            assert st.admit_locked(2, payload, spare=False)
        payload["flat"][:] = -1.0  # donor mutates its buffers afterwards
        got = ElasticComm(2, st, incarnation=1).await_admission()
        np.testing.assert_array_equal(got["flat"], payload_for(2)["flat"])

    def test_corrupted_resync_fails_crc(self):
        st, _ = make_state()
        st.active.discard(2)
        with st.cond:
            assert st.admit_locked(2, payload_for(2), spare=False)
        st.joining[2].payload["flat"][0] += 1.0  # bit-rot in flight
        with pytest.raises(MessageCorruptError):
            ElasticComm(2, st, incarnation=1).await_admission()


class TestRejoinRaces:
    def test_admission_racing_eviction_same_generation(self):
        """A joiner evicted before claiming its resync must get a clean
        RankEvictedError, not a stale payload."""
        st, _ = make_state()
        st.active.discard(2)
        with st.cond:
            assert st.admit_locked(2, payload_for(2), spare=False)
            st.evict_locked(2, waited_s=0.0)  # same generation
        assert 2 not in st.joining
        with pytest.raises(RankEvictedError):
            ElasticComm(2, st, incarnation=1).await_admission()
        # A later re-admission bumps the incarnation past the loser's.
        with st.cond:
            assert st.admit_locked(2, payload_for(2), spare=False)
        assert st.incarnation[2] == 2
        with pytest.raises(RankEvictedError):
            ElasticComm(2, st, incarnation=1).await_admission()
        ElasticComm(2, st, incarnation=2).await_admission()

    def test_quorum_loss_while_resync_in_flight(self):
        st, _ = make_state(size=4, quorum=3)
        st.active.discard(3)
        with st.cond:
            assert st.admit_locked(3, payload_for(3), spare=False)
        # Two survivors die before the joiner claims its payload.
        st.mark_failed(0, RuntimeError("x"))
        st.mark_failed(1, RuntimeError("y"))
        assert st.quorum_lost
        with pytest.raises(QuorumLostError):
            ElasticComm(3, st, incarnation=1).await_admission()

    def test_no_admission_after_quorum_loss(self):
        st, _ = make_state(size=4, quorum=3)
        st.mark_failed(0, RuntimeError("x"))
        st.mark_failed(1, RuntimeError("y"))
        with st.cond:
            assert not st.admit_locked(0, payload_for(0), spare=False)

    def test_stale_thread_of_readmitted_rank_is_fenced(self):
        """A hung thread that out-sleeps its own eviction AND its rank's
        readmission must not contribute to (or fail) the successor."""
        g = ThreadedGroup(3, timeout_s=0.15, quorum=1)

        def body(comm):
            out = []
            for step in range(8):
                if comm.rank == 1 and step == 1:
                    time.sleep(1.0)  # evicted at ~0.15s; wakes post-rejoin
                if comm.rank == 0 and step == 3:
                    assert comm.admit(1, payload_for(1))
                out.append(comm.allreduce(np.array([1.0]), ReduceOp.SUM)[0])
            return out

        def joiner(comm):
            comm.await_admission()
            return [comm.allreduce(np.array([1.0]), ReduceOp.SUM)[0] for _ in range(5)]

        results = g.run(body, joiner_fn=joiner)
        # Steps 0 full, 1-2 shrunk, 3-7 grown back; the stale incarnation
        # of rank 1 never lands a contribution.
        assert results[0] == [3.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0]
        assert results[1] == [3.0, 3.0, 3.0, 3.0, 3.0]
        stats = g.stats()
        assert stats["evicted_ranks"] == [1]
        assert stats["failed_ranks"] == []  # the stale thread's exit is benign
        assert stats["rejoins"] == [1]
        assert stats["survivors"] == [0, 1, 2]

    def test_stale_failure_does_not_kill_successor(self):
        """mark_failed from an old incarnation is ignored."""
        st, _ = make_state()
        st.active.discard(2)
        with st.cond:
            assert st.admit_locked(2, payload_for(2), spare=False)
        st.mark_failed(2, RuntimeError("stale ghost"), incarnation=0)
        assert 2 in st.active
        assert 2 not in st.failures


class TestSparePolicy:
    def test_joins_due_recover_refunds_queued_spare(self):
        """RANK_RECOVER (the original node came back) cancels a queued
        auto-respawn for the same rank and returns its spare."""
        st, _ = make_state(spares=1)
        comm = ElasticComm(0, st)
        st.mark_failed(2, RuntimeError("down"))  # reserves the spare
        assert st.respawn_queue == [2]
        assert st.spares_left == 0
        due = comm.joins_due([FaultEvent(FaultKind.RANK_RECOVER, rank=2, step=0)])
        assert due == [(2, False)]
        assert st.respawn_queue == []
        assert st.spares_left == 1

    def test_joins_due_spare_join_picks_lowest_dead_rank(self):
        st, _ = make_state(spares=2, with_spawner=True)
        st.auto_respawn = False
        comm = ElasticComm(0, st)
        st.mark_failed(3, RuntimeError("a"))
        st.mark_failed(1, RuntimeError("b"))
        due = comm.joins_due([FaultEvent(FaultKind.SPARE_JOIN, rank=None, step=0)])
        assert due == [(1, True)]
        assert st.spares_left == 1

    def test_spare_budget_is_respected(self):
        st, _ = make_state(spares=1)
        st.auto_respawn = False
        comm = ElasticComm(0, st)
        st.mark_failed(1, RuntimeError("a"))
        st.mark_failed(2, RuntimeError("b"))
        due = comm.joins_due(
            [
                FaultEvent(FaultKind.SPARE_JOIN, rank=1, step=0),
                FaultEvent(FaultKind.SPARE_JOIN, rank=2, step=0),
            ]
        )
        assert due == [(1, True)]  # one spare, one join
        assert st.spares_left == 0

    def test_auto_respawn_reserves_at_failure_time(self):
        st, _ = make_state(spares=2)
        comm = ElasticComm(0, st)
        st.mark_failed(1, RuntimeError("a"))
        st.mark_failed(3, RuntimeError("b"))
        assert st.respawn_queue == [1, 3]
        assert comm.has_pending_respawns
        assert comm.joins_due() == [(1, True), (3, True)]
        assert not comm.has_pending_respawns

    def test_warm_spares_auto_replace_evicted_ranks_end_to_end(self):
        g = ThreadedGroup(4, timeout_s=5.0, quorum=1, spares=1)

        def body(comm):
            out = []
            for step in range(4):
                if comm.rank == 3 and step == 1:
                    raise RuntimeError("down")
                if comm.rank == 0 and step >= 2:
                    for r, spare in comm.joins_due():
                        assert comm.admit(r, payload_for(r), spare=spare)
                out.append(comm.allreduce(np.array([1.0]), ReduceOp.SUM)[0])
            return out

        def joiner(comm):
            comm.await_admission()
            return [comm.allreduce(np.array([1.0]), ReduceOp.SUM)[0] for _ in range(2)]

        results = g.run(body, joiner_fn=joiner)
        assert results[0] == [4.0, 3.0, 4.0, 4.0]
        assert results[3] == [4.0, 4.0]
        stats = g.stats()
        assert stats["spares_used"] == 1
        assert stats["rejoins"] == [3]
