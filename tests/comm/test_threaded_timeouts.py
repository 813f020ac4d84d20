"""Timeout and peer-failure behaviour of the fixed-membership backend.

Before the resilience work, a rank dying outside a collective while its
peers waited inside one hung the barrier forever.  These tests pin the
contract: bounded waits, typed errors, and the peer's original
exception re-raised on the survivors.
"""

import threading
import time

import numpy as np
import pytest

from repro.comm.errors import CommTimeoutError, RankFailedError
from repro.comm.threaded import ThreadedGroup
from tests.conftest import join_rank_threads


class TestThreadedTimeouts:
    def test_peer_death_reraises_peer_exception_on_survivors(self):
        g = ThreadedGroup(3, timeout_s=5.0)
        seen = {}

        def body(comm):
            if comm.rank == 1:
                raise RuntimeError("rank 1 heap corruption")
            try:
                comm.allreduce(np.ones(2))
            except RankFailedError as exc:
                seen[comm.rank] = exc
                raise
            return comm.rank

        with pytest.raises(RuntimeError, match="heap corruption"):
            g.run(body)
        # Survivors saw a typed error naming the dead rank, with the
        # peer's original exception chained as the cause.
        for rank in (0, 2):
            assert seen[rank].failed_ranks == (1,)
            assert isinstance(seen[rank].__cause__, RuntimeError)

    def test_hung_peer_times_out_instead_of_blocking_forever(self):
        g = ThreadedGroup(2, timeout_s=0.2)
        release = threading.Event()

        def body(comm):
            if comm.rank == 1:
                release.wait(60.0)  # never reaches the collective
                return None
            comm.allreduce(np.ones(2))
            return comm.rank

        t0 = time.monotonic()
        try:
            with pytest.raises(CommTimeoutError) as ei:
                g.run(body)
            assert time.monotonic() - t0 < 10.0
            assert ei.value.timeout_s == pytest.approx(0.2)
        finally:
            release.set()
            assert join_rank_threads() == []

    def test_timeout_none_disables_bound(self):
        g = ThreadedGroup(2, timeout_s=None)
        out = g.run(lambda comm: comm.allreduce(np.array([1.0]))[0])
        assert out == [2.0, 2.0]

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            ThreadedGroup(2, timeout_s=-1.0)

    def test_group_reusable_after_timeout(self):
        g = ThreadedGroup(2, timeout_s=0.2)

        def hang_one(comm):
            if comm.rank == 0:
                comm.allreduce(np.ones(1))
            else:
                time.sleep(1.0)

        with pytest.raises(CommTimeoutError):
            g.run(hang_one)
        time.sleep(1.0)  # let the straggler thread drain
        out = g.run(lambda comm: comm.allreduce(np.array([2.0]))[0])
        assert out == [4.0, 4.0]
