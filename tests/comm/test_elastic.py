"""The thread group below full quorum: shrink and continue.

``test_threaded.py`` holds the same group at its default, ``quorum ==
size``; the fault-free checks here repeat at ``quorum=1`` what it pins
there, because a fault-free run must not depend on the policy.
"""

import time

import numpy as np
import pytest

from repro.comm.communicator import ReduceOp, reduce_arrays
from repro.comm.elastic import ThreadedGroup
from repro.comm.errors import QuorumLostError, RankFailedError
from repro.comm.serial import SteppedGroup
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from tests.comm.test_threaded import run_with_rank_1_hung_outside_collectives


class TestFaultFree:
    """With no faults the quorum is never consulted."""

    def test_allreduce_matches_stepped_bitwise(self):
        rng = np.random.default_rng(7)
        arrays = [rng.standard_normal(33).astype(np.float32) for _ in range(5)]
        elastic = ThreadedGroup(5, quorum=1).run(
            lambda comm: comm.allreduce(arrays[comm.rank], ReduceOp.MEAN)
        )
        stepped = SteppedGroup(5).allreduce(arrays, ReduceOp.MEAN)
        for a, b in zip(elastic, stepped):
            np.testing.assert_array_equal(a, b)

    def test_full_collective_suite(self):
        g = ThreadedGroup(3, quorum=1)

        def body(comm):
            s = comm.allreduce(np.array([float(comm.rank)]), ReduceOp.SUM)
            b = comm.bcast(np.array([9.0]) if comm.rank == 1 else None, root=1)
            m = comm.allreduce(np.array([float(comm.rank * 2)]), ReduceOp.MAX)
            return s[0], b[0], m[0]

        for s, b, m in g.run(body):
            assert s == 3.0
            assert b == 9.0
            assert m == 4.0

    def test_many_sequential_collectives(self):
        g = ThreadedGroup(4, quorum=1)

        def body(comm):
            total = 0.0
            for i in range(50):
                total += comm.allreduce(np.array([float(comm.rank + i)]))[0]
            return total

        want = sum(sum(r + i for r in range(4)) for i in range(50))
        for got in g.run(body):
            assert got == pytest.approx(want)
        assert g.reductions == 50
        assert g.active_ranks == [0, 1, 2, 3]
        assert g.failures == {}

    def test_size_one(self):
        g = ThreadedGroup(1)
        out = g.run(lambda comm: comm.allreduce(np.array([3.0]), ReduceOp.MEAN))
        np.testing.assert_allclose(out[0], [3.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            ThreadedGroup(0)
        with pytest.raises(ValueError):
            ThreadedGroup(2, timeout_s=0.0)
        with pytest.raises(ValueError):
            ThreadedGroup(2, quorum=3)
        with pytest.raises(ValueError):
            ThreadedGroup(2, join_timeout_s=0.0)

    def test_healthy_run_longer_than_timeout_succeeds(self):
        """No join bound by default: timeout_s is the per-collective
        heartbeat, and a healthy run may take arbitrarily long."""
        g = ThreadedGroup(2, timeout_s=0.2, quorum=1)
        assert g.join_timeout_s is None

        def body(comm):
            total = 0.0
            for _ in range(8):  # ~0.4 s total, each gap well under 0.2 s
                time.sleep(0.05)
                total += comm.allreduce(np.array([1.0]))[0]
            return total

        assert g.run(body) == [16.0, 16.0]
        assert g.active_ranks == [0, 1]


class TestShrinkAndContinue:
    def test_crash_mid_collective_shrinks_group(self):
        g = ThreadedGroup(3, timeout_s=5.0, quorum=1)
        values = [1.0, 2.0, 3.0]

        def body(comm):
            out = []
            for step in range(3):
                if comm.rank == 2 and step == 1:
                    raise RuntimeError("rank 2 exploded")
                out.append(
                    comm.allreduce(np.array([values[comm.rank]]), ReduceOp.MEAN)[0]
                )
            return out

        results = g.run(body)
        # Step 0: all three ranks; steps 1-2: survivors {0, 1} only,
        # with MEAN renormalized by the survivor count.
        want = [(1.0 + 2.0 + 3.0) / 3, (1.0 + 2.0) / 2, (1.0 + 2.0) / 2]
        assert results[0] == pytest.approx(want)
        assert results[1] == pytest.approx(want)
        assert results[2] is None
        assert g.active_ranks == [0, 1]
        assert list(g.failures) == [2]
        assert "exploded" in str(g.failures[2])

    def test_post_crash_result_matches_survivor_reference(self):
        """After a shrink the reduction is bitwise the survivors' reduction."""
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal(17).astype(np.float32) for _ in range(4)]
        g = ThreadedGroup(4, timeout_s=5.0, quorum=1)

        def body(comm):
            if comm.rank == 1:
                raise RuntimeError("down")
            return comm.allreduce(arrays[comm.rank], ReduceOp.MEAN)

        results = g.run(body)
        want = reduce_arrays([arrays[0], arrays[2], arrays[3]], ReduceOp.MEAN)
        for r in (0, 2, 3):
            np.testing.assert_array_equal(results[r], want)

    def test_straggler_is_evicted_on_timeout(self):
        g = ThreadedGroup(3, timeout_s=0.2, quorum=1)

        def body(comm):
            out = []
            for step in range(2):
                if comm.rank == 1 and step == 1:
                    time.sleep(1.0)  # out-sleeps the heartbeat timeout
                out.append(
                    comm.allreduce(np.array([1.0]), ReduceOp.SUM)[0]
                )
            return out

        t0 = time.monotonic()
        results = g.run(body)
        elapsed = time.monotonic() - t0
        assert results[0] == [3.0, 2.0]  # step 1 completes over survivors
        assert results[2] == [3.0, 2.0]
        assert g.active_ranks == [0, 2]
        assert [r for _, r in g.evictions] == [1]
        # Survivors waited ~timeout_s, not the straggler's full sleep.
        assert elapsed < 5.0

    def test_rank_hung_outside_collectives_is_evicted(self):
        """The stall no collective can see, with a rank to spare: the
        run comes back without the stalled rank instead of waiting."""
        g = ThreadedGroup(2, timeout_s=0.3, quorum=1)
        assert run_with_rank_1_hung_outside_collectives(g) == [0, None]
        assert g.active_ranks == [0]
        assert [r for _, r in g.evictions] == [1]

    def test_bcast_root_death_raises_typed_error_on_survivors(self):
        g = ThreadedGroup(3, timeout_s=5.0, quorum=1)

        def body(comm):
            if comm.rank == 0:
                raise RuntimeError("root died")
            try:
                comm.bcast(None, root=0)
            except RankFailedError as exc:
                return ("bcast-failed", exc.failed_ranks)
            return "unexpected-success"

        results = g.run(body)
        assert results[1] == ("bcast-failed", (0,))
        assert results[2] == ("bcast-failed", (0,))

    def test_stats_report(self):
        g = ThreadedGroup(2, timeout_s=5.0, quorum=1)

        def body(comm):
            if comm.rank == 1:
                raise RuntimeError("x")
            return comm.allreduce(np.ones(2))

        g.run(body)
        stats = g.stats()
        assert stats["failed_ranks"] == [1]
        assert stats["survivors"] == [0]
        assert stats["reductions"] == 1


class TestCorruptionRecovery:
    def test_corrupt_contribution_is_retransmitted(self):
        inj = FaultInjector(
            FaultPlan(
                events=[FaultEvent(FaultKind.MESSAGE_CORRUPT, rank=1, step=0)]
            )
        )
        rng = np.random.default_rng(5)
        arrays = [rng.standard_normal(64).astype(np.float32) for _ in range(3)]
        g = ThreadedGroup(3, injector=inj)
        results = g.run(
            lambda comm: comm.allreduce(arrays[comm.rank], ReduceOp.MEAN)
        )
        want = reduce_arrays(arrays, ReduceOp.MEAN)
        for r in results:
            np.testing.assert_array_equal(r, want)  # corruption fully recovered
        assert g.retransmits == 1
        assert inj.fired[FaultKind.MESSAGE_CORRUPT] == 1

    def test_no_checksums_without_corruption_events(self):
        inj = FaultInjector(FaultPlan())
        g = ThreadedGroup(2, injector=inj)
        g.run(lambda comm: comm.allreduce(np.ones(4)))
        assert g.retransmits == 0


class TestQuorum:
    def test_quorum_loss_raises(self):
        g = ThreadedGroup(4, timeout_s=5.0, quorum=3)

        def body(comm):
            for step in range(4):
                if comm.rank >= 2 and step == 1:
                    raise RuntimeError(f"rank {comm.rank} down")
                comm.allreduce(np.array([1.0]))
            return "done"

        with pytest.raises(QuorumLostError) as ei:
            g.run(body)
        assert ei.value.survivors == (0, 1)

    def test_all_ranks_failing_raises_with_cause(self):
        g = ThreadedGroup(2, timeout_s=5.0, quorum=1)

        def body(comm):
            raise ValueError(f"rank {comm.rank} bad")

        with pytest.raises(QuorumLostError) as ei:
            g.run(body)
        assert isinstance(ei.value.__cause__, ValueError)
