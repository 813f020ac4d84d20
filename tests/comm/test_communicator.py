"""Tests for the communicator API, serial and stepped backends."""

import numpy as np
import pytest

from repro.comm.communicator import ReduceOp, reduce_arrays
from repro.comm.serial import SerialCommunicator, SteppedGroup


class TestReduceArrays:
    def test_sum(self):
        out = reduce_arrays([np.ones(3), np.full(3, 2.0)], ReduceOp.SUM)
        np.testing.assert_allclose(out, 3.0)

    def test_mean(self):
        out = reduce_arrays([np.ones(3), np.full(3, 3.0)], ReduceOp.MEAN)
        np.testing.assert_allclose(out, 2.0)

    def test_max_min(self):
        a = np.array([1.0, 5.0])
        b = np.array([3.0, 2.0])
        np.testing.assert_allclose(reduce_arrays([a, b], ReduceOp.MAX), [3.0, 5.0])
        np.testing.assert_allclose(reduce_arrays([a, b], ReduceOp.MIN), [1.0, 2.0])

    def test_does_not_mutate_inputs(self):
        a = np.ones(3)
        reduce_arrays([a, np.ones(3)], ReduceOp.SUM)
        np.testing.assert_allclose(a, 1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            reduce_arrays([], ReduceOp.SUM)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            reduce_arrays([np.ones(2), np.ones(3)], ReduceOp.SUM)

    def test_deterministic_rank_order(self):
        # Association must be ((a0+a1)+a2), not a pairwise tree.
        rng = np.random.default_rng(0)
        arrays = [rng.standard_normal(100).astype(np.float32) for _ in range(5)]
        expect = arrays[0].copy()
        for a in arrays[1:]:
            expect = expect + a
        np.testing.assert_array_equal(reduce_arrays(arrays, ReduceOp.SUM), expect)


class TestSerialCommunicator:
    def test_identity_collectives(self):
        comm = SerialCommunicator()
        assert comm.rank == 0 and comm.size == 1
        x = np.array([1.0, 2.0])
        np.testing.assert_allclose(comm.allreduce(x, ReduceOp.MEAN), x)
        np.testing.assert_allclose(comm.bcast(x), x)

    def test_bcast_copies(self):
        comm = SerialCommunicator()
        x = np.array([1.0])
        y = comm.bcast(x)
        y[0] = 99.0
        assert x[0] == 1.0

    def test_bcast_requires_array(self):
        with pytest.raises(ValueError):
            SerialCommunicator().bcast(None)

    def test_bad_root(self):
        with pytest.raises(ValueError):
            SerialCommunicator().bcast(np.ones(1), root=1)


class TestSteppedGroup:
    def test_allreduce_mean(self):
        g = SteppedGroup(4)
        arrays = [np.full(3, float(r)) for r in range(4)]
        out = g.allreduce(arrays, ReduceOp.MEAN)
        assert len(out) == 4
        for o in out:
            np.testing.assert_allclose(o, 1.5)

    def test_every_rank_reads_one_result(self):
        g = SteppedGroup(3)
        out = g.allreduce([np.ones(2)] * 3, ReduceOp.SUM)
        assert out[0] is out[1] is out[2]
        np.testing.assert_array_equal(out[0], [3.0, 3.0])

    def test_stats(self):
        g = SteppedGroup(2)
        g.allreduce([np.ones(4, dtype=np.float32)] * 2)
        assert g.reductions == 1
        assert g.bytes_reduced == 4 * 4 * 2

    def test_wrong_count_raises(self):
        g = SteppedGroup(3)
        with pytest.raises(ValueError):
            g.allreduce([np.ones(2)] * 2)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            SteppedGroup(0)
