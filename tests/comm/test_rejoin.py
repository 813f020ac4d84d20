"""Tests for the grow-back (rank rejoin / warm spare) protocol.

These exercise the admission machinery directly — including the races
the protocol must survive: admission racing eviction in the same
generation, quorum loss while a resync is in flight, a spare joining
while peers already wait inside a pending collective, and stale threads
of a readmitted rank being fenced by incarnation numbers.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.comm.communicator import ReduceOp
from repro.comm.elastic import ElasticComm, ThreadedGroup, _ElasticState
from repro.comm.membership import donor
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


def kill(st, *ranks):
    with st.cond:
        for rank in ranks:
            assert st.m.fail(rank)


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
        kill(st, 2)
        assert not ElasticComm(0, st).admit(2, payload_for(2))
        assert 2 not in st.m.survivors()

    def test_admission_refused_for_active_or_bogus_ranks(self):
        st, spawned = make_state()
        donor = ElasticComm(0, st)
        assert not donor.admit(1, payload_for(1))  # active
        assert not donor.admit(7, payload_for(7))  # range
        assert not donor.admit(-1, payload_for(0))
        kill(st, 2)
        assert donor.admit(2, payload_for(2))
        assert not donor.admit(2, payload_for(2))  # joining
        assert spawned == [(2, 1)]

    def test_resync_payload_is_deep_copied(self):
        st, _ = make_state()
        kill(st, 2)
        payload = payload_for(2)
        assert ElasticComm(0, st).admit(2, payload)
        payload["flat"][:] = -1.0  # donor mutates its buffers afterwards
        got = ElasticComm(2, st, incarnation=1).await_admission()
        np.testing.assert_array_equal(got["flat"], payload_for(2)["flat"])

    def test_corrupted_resync_fails_crc(self):
        st, _ = make_state()
        kill(st, 2)
        assert ElasticComm(0, st).admit(2, payload_for(2))
        st.tickets[2]["flat"][0] += 1.0  # bit-rot in flight
        with pytest.raises(MessageCorruptError):
            ElasticComm(2, st, incarnation=1).await_admission()


class TestRejoinRaces:
    def test_admission_racing_eviction_same_generation(self):
        """A joiner evicted before claiming its resync must get a clean
        RankEvictedError, not a stale payload."""
        st, _ = make_state()
        kill(st, 2)
        donor = ElasticComm(0, st)
        assert donor.admit(2, payload_for(2))
        with st.cond:
            st.evict_locked(2, waited_s=0.0)  # same generation
        assert st.m.join[2] == 0 and 2 not in st.tickets
        with pytest.raises(RankEvictedError):
            ElasticComm(2, st, incarnation=1).await_admission()
        # A later re-admission bumps the incarnation past the loser's.
        assert donor.admit(2, payload_for(2))
        assert st.m.incarnation[2] == 2
        with pytest.raises(RankEvictedError):
            ElasticComm(2, st, incarnation=1).await_admission()
        ElasticComm(2, st, incarnation=2).await_admission()
        # A resync is claimed once, and an original member has none.
        for rank, incarnation in ((2, 2), (1, 0)):
            with pytest.raises(RankEvictedError):
                ElasticComm(rank, st, incarnation=incarnation).await_admission()

    def test_quorum_loss_while_resync_in_flight(self):
        st, _ = make_state(size=4, quorum=3)
        kill(st, 3)
        assert ElasticComm(0, st).admit(3, payload_for(3))
        # Two survivors die before the joiner claims its payload.
        st.mark_failed(0, RuntimeError("x"))
        st.mark_failed(1, RuntimeError("y"))
        assert st.m.quorum_lost
        with pytest.raises(QuorumLostError):
            ElasticComm(3, st, incarnation=1).await_admission()

    def test_no_admission_after_quorum_loss(self):
        st, _ = make_state(size=4, quorum=3)
        st.mark_failed(0, RuntimeError("x"))
        st.mark_failed(1, RuntimeError("y"))
        assert not ElasticComm(2, st).admit(0, payload_for(0))

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

    def test_every_rank_latches_the_same_members_under_fast_thread_switching(self):
        """Eight rank threads, three crashes, auto-respawned at the next
        boundary by its donor, with the interpreter switching threads
        every microsecond: for every step all ranks latch one membership,
        and the step's sum counts each of those members once."""
        steps, crash_at = 25, {2: 3, 5: 9, 6: 9}
        g = ThreadedGroup(8, timeout_s=5.0, quorum=1, spares=3)

        def steps_from(comm, first):
            seen = []
            for step in range(first, steps):
                if step == crash_at.get(comm.rank) and comm.incarnation == 0:
                    raise RuntimeError("down")
                if donor(comm.last_members) == comm.rank:
                    for rank, spare in comm.joins_due():
                        assert comm.admit(rank, {"step": np.int64(step)}, spare=spare)
                total = comm.allreduce(np.ones(1))[0]
                seen.append((step, comm.last_members, total))
            return seen

        def joiner(comm):
            return steps_from(comm, int(comm.await_admission()["step"]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = g.run(lambda comm: steps_from(comm, 0), joiner_fn=joiner)
        finally:
            sys.setswitchinterval(interval)
        by_step = {}
        for seen in results:
            for step, members, total in seen:
                assert total == len(members)
                assert by_step.setdefault(step, members) == members
        assert len(by_step) == steps
        assert sorted(by_step[4]) == [0, 1, 2, 3, 4, 5, 6, 7]  # rank 2 back at step 4
        assert g.stats()["rejoins"] == [2, 5, 6] and g.stats()["spares_used"] == 3

    def test_stale_failure_does_not_kill_successor(self):
        """mark_failed from an old incarnation is ignored."""
        st, _ = make_state()
        kill(st, 2)
        assert ElasticComm(0, st).admit(2, payload_for(2))
        st.mark_failed(2, RuntimeError("stale ghost"), incarnation=0)
        assert 2 in st.m.survivors()
        assert 2 not in st.failures


class TestSparePolicy:
    """The donor's decision at a step boundary, over the membership the
    last collective latched (``last_members``)."""

    @staticmethod
    def donor_after(st, *dead):
        kill(st, *dead)
        comm = ElasticComm(0, st)
        comm.last_members = frozenset(st.m.survivors())
        return comm

    def test_joins_due_recover_takes_no_spare(self):
        """RANK_RECOVER (the original node came back) readmits its rank
        without drawing on the pool, auto-respawn or not."""
        st, _ = make_state(spares=1)
        comm = self.donor_after(st, 2)
        due = comm.joins_due([FaultEvent(FaultKind.RANK_RECOVER, rank=2, step=0)])
        assert due == [(2, False)]
        assert comm.admit(2, payload_for(2), spare=False)
        assert st.m.spares_left == 1

    def test_joins_due_spare_join_picks_lowest_dead_rank(self):
        st, _ = make_state(spares=2, auto_respawn=False)
        comm = self.donor_after(st, 3, 1)
        due = comm.joins_due([FaultEvent(FaultKind.SPARE_JOIN, rank=None, step=0)])
        assert due == [(1, True)]
        assert comm.admit(1, payload_for(1), spare=True)
        assert st.m.spares_left == 1

    def test_spare_budget_is_respected(self):
        st, _ = make_state(spares=1, auto_respawn=False)
        comm = self.donor_after(st, 1, 2)
        due = comm.joins_due(
            [
                FaultEvent(FaultKind.SPARE_JOIN, rank=1, step=0),
                FaultEvent(FaultKind.SPARE_JOIN, rank=2, step=0),
            ]
        )
        assert due == [(1, True)]  # one spare, one join
        assert comm.admit(1, payload_for(1), spare=True)
        assert not comm.admit(2, payload_for(2), spare=True)  # the pool is empty
        assert st.m.spares_left == 0

    def test_auto_respawn_admits_missing_ranks_at_the_boundary(self):
        """No reservation when a rank dies: the boundary replaces the
        ranks missing from the latched membership, in rank order, while
        spares remain, and never a rank whose admission is pending."""
        st, _ = make_state(spares=2)
        comm = self.donor_after(st, 3, 1)
        assert comm.joins_due() == [(1, True), (3, True)]
        assert comm.admit(1, payload_for(1), spare=True)
        assert comm.joins_due() == [(3, True)]
        st.m.reset(quorum=1, spares=1)
        kill(st, 1, 3)
        assert comm.joins_due() == [(1, True)]

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
