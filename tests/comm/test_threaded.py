"""The thread group at its default, ``quorum == size``: the paper's
fully synchronous mode, where any rank lost fails the run.

``test_elastic.py`` holds the same group below full quorum.
"""

import threading
import time

import numpy as np
import pytest

from repro.comm.communicator import ReduceOp, reduce_arrays
from repro.comm.errors import QuorumLostError
from repro.comm.serial import SteppedGroup
from repro.comm.elastic import ThreadedGroup
from tests.conftest import join_rank_threads


def run_with_rank_1_hung_outside_collectives(group):
    """``group.run`` with rank 1 stalled for 5 s after the last
    collective; asserts the call came back well before the stall ended
    and that the stalled thread unwinds once released."""
    release = threading.Event()

    def body(comm):
        comm.allreduce(np.zeros(1))  # every rank arrives first
        if comm.rank == 1:
            release.wait(5.0)  # far past any timeout, no collective in sight
        return comm.rank

    t0 = time.monotonic()
    try:
        return group.run(body)
    finally:
        elapsed = time.monotonic() - t0
        release.set()
        assert join_rank_threads() == []
        assert elapsed < 3.0  # did not wait out the stall


class TestThreadedGroup:
    def test_allreduce_sum(self):
        g = ThreadedGroup(4)

        def body(comm):
            x = np.full(5, float(comm.rank), dtype=np.float32)
            return comm.allreduce(x, ReduceOp.SUM)

        results = g.run(body)
        for r in results:
            np.testing.assert_allclose(r, 0 + 1 + 2 + 3)

    def test_allreduce_mean_matches_reference(self):
        rng = np.random.default_rng(0)
        arrays = [rng.standard_normal(64).astype(np.float32) for _ in range(3)]
        g = ThreadedGroup(3)
        results = g.run(lambda comm: comm.allreduce(arrays[comm.rank], ReduceOp.MEAN))
        want = reduce_arrays(arrays, ReduceOp.MEAN)
        for r in results:
            np.testing.assert_array_equal(r, want)

    def test_matches_stepped_bitwise(self):
        """Threaded and stepped backends share reduction numerics."""
        rng = np.random.default_rng(1)
        arrays = [rng.standard_normal(33).astype(np.float32) for _ in range(5)]
        threaded = ThreadedGroup(5).run(
            lambda comm: comm.allreduce(arrays[comm.rank], ReduceOp.MEAN)
        )
        stepped = SteppedGroup(5).allreduce(arrays, ReduceOp.MEAN)
        for a, b in zip(threaded, stepped):
            np.testing.assert_array_equal(a, b)

    def test_sequential_collectives(self):
        """Multiple collectives in sequence do not cross-contaminate."""
        g = ThreadedGroup(3)

        def body(comm):
            a = comm.allreduce(np.array([float(comm.rank)]), ReduceOp.SUM)
            b = comm.allreduce(np.array([float(comm.rank * 10)]), ReduceOp.SUM)
            return a[0], b[0]

        for a, b in g.run(body):
            assert a == 3.0
            assert b == 30.0

    def test_bcast(self):
        g = ThreadedGroup(4)

        def body(comm):
            payload = np.array([42.0]) if comm.rank == 2 else None
            return comm.bcast(payload, root=2)

        for r in g.run(body):
            np.testing.assert_allclose(r, [42.0])

    def test_args_per_rank(self):
        g = ThreadedGroup(2)
        results = g.run(lambda comm, x: x * 2, args_per_rank=[(1,), (10,)])
        assert results == [2, 20]

    def test_args_per_rank_length_check(self):
        g = ThreadedGroup(2)
        with pytest.raises(ValueError):
            g.run(lambda comm, x: x, args_per_rank=[(1,)])

    def test_exception_propagates_without_hang(self):
        g = ThreadedGroup(3)

        def body(comm):
            if comm.rank == 1:
                raise RuntimeError("rank 1 exploded")
            comm.allreduce(np.ones(2))  # would deadlock without abort
            return comm.rank

        with pytest.raises(QuorumLostError) as ei:
            g.run(body)
        assert isinstance(ei.value.__cause__, RuntimeError)
        assert "rank 1 exploded" in str(ei.value.__cause__)

    def test_stats(self):
        g = ThreadedGroup(2)
        g.run(lambda comm: comm.allreduce(np.ones(4, dtype=np.float32)))
        assert g.reductions == 1
        assert g.bytes_reduced == 4 * 4 * 2

    def test_size_one(self):
        g = ThreadedGroup(1)
        out = g.run(lambda comm: comm.allreduce(np.array([3.0]), ReduceOp.MEAN))
        np.testing.assert_allclose(out[0], [3.0])

    def test_bad_size(self):
        with pytest.raises(ValueError):
            ThreadedGroup(0)

    def test_healthy_run_longer_than_timeout_succeeds(self):
        """timeout_s bounds each collective wait, never the whole run:
        a healthy multi-step body outliving timeout_s must complete."""
        g = ThreadedGroup(2, timeout_s=0.2)

        def body(comm):
            total = 0.0
            for _ in range(8):  # ~0.4 s total, each gap well under 0.2 s
                time.sleep(0.05)
                total += comm.allreduce(np.array([1.0]))[0]
            return total

        assert g.run(body) == [16.0, 16.0]

    def test_rank_hung_outside_collectives_detected(self):
        """A rank stalled where no collective can see it must not hang
        the caller: once its peer returns, it gets timeout_s to unwind,
        is evicted, and with every rank needed the run is lost."""
        g = ThreadedGroup(2, timeout_s=0.3)
        with pytest.raises(QuorumLostError) as ei:
            run_with_rank_1_hung_outside_collectives(g)
        assert ei.value.survivors == (0,)
        assert [r for _, r in g.evictions] == [1]

    def test_join_timeout_validation(self):
        with pytest.raises(ValueError):
            ThreadedGroup(2, join_timeout_s=0.0)
