"""Timeout and peer-failure behaviour at ``quorum == size``.

A rank dying outside a collective while its peers wait inside one must
not hang them.  These tests pin the contract: bounded waits, one typed
error, and the dead rank's own exception as its cause.
"""

import threading
import time

import numpy as np
import pytest

from repro.comm.errors import QuorumLostError
from repro.comm.elastic import ThreadedGroup
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
            except QuorumLostError as exc:
                seen[comm.rank] = exc
                raise
            return comm.rank

        with pytest.raises(QuorumLostError) as ei:
            g.run(body)
        # The caller gets the dead rank's exception as the cause; the
        # survivors were released with a typed error naming who is left.
        assert isinstance(ei.value.__cause__, RuntimeError)
        assert "heap corruption" in str(ei.value.__cause__)
        assert list(g.failures) == [1]
        for rank in (0, 2):
            assert seen[rank].survivors == (0, 2)

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
            with pytest.raises(QuorumLostError) as ei:
                g.run(body)
            assert time.monotonic() - t0 < 10.0
            assert ei.value.survivors == (0,)
            assert [r for _, r in g.evictions] == [1]
        finally:
            release.set()
            assert join_rank_threads() == []

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            ThreadedGroup(2, timeout_s=-1.0)
