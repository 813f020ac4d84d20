"""Tests for replica modeling and pool membership."""

import pytest

from repro.core.model import CosmoFlowModel
from repro.core.topology import tiny_16
from repro.perfmodel.node import NodeSpec
from repro.serve.pool import ReplicaPool
from repro.serve.replica import OVERHEAD_S, Replica, ReplicaState
from repro.utils.rng import new_rng


@pytest.fixture(scope="module")
def model():
    return CosmoFlowModel(tiny_16(), seed=0)


def flat_node():
    return NodeSpec(name="flat", sustained_flops=1e9, peak_flops=1e12, jitter_sigma=0.0)


def make_replica(rid, model, jitter=0.0):
    node = NodeSpec(
        name="n", sustained_flops=1e9, peak_flops=1e12, jitter_sigma=jitter
    )
    return Replica(rid, model, node)


class TestReplica:
    def test_service_time_is_flops_over_rate_plus_overhead(self, model):
        r = make_replica(0, model)
        nominal = r.nominal_service_s(4)
        expected = OVERHEAD_S + 4 * r.fwd_flops_per_sample / 1e9
        assert nominal == pytest.approx(expected)
        # Zero jitter: the sampled draw equals the nominal time.
        assert r.service_time(4, new_rng(0)) == pytest.approx(nominal)

    def test_jitter_is_seeded(self, model):
        r = make_replica(0, model, jitter=0.1)
        a = r.service_time(2, new_rng(7))
        b = r.service_time(2, new_rng(7))
        c = r.service_time(2, new_rng(8))
        assert a == b and a != c

    def test_boots_warming(self, model):
        assert make_replica(0, model).state is ReplicaState.WARMING


class TestPool:
    def make_pool(self, model, n=3, spares=0):
        reps = [make_replica(i, model) for i in range(n)]
        sps = [make_replica(n + i, model) for i in range(spares)]
        pool = ReplicaPool(reps, sps)
        for r in reps:
            pool.mark_ready(r)
        return pool

    def test_pick_prefers_least_loaded_then_lowest_id(self, model):
        pool = self.make_pool(model)
        assert pool.pick().rid == 0
        pool.replicas[0].batches_served = 2
        pool.replicas[1].batches_served = 1
        assert pool.pick().rid == 2  # 0 batches served
        pool.replicas[2].batches_served = 1
        assert pool.pick().rid == 1  # tie at 1 -> lowest id

    def test_busy_and_dead_excluded(self, model):
        pool = self.make_pool(model, n=2)
        pool.replicas[0].state = ReplicaState.BUSY
        assert pool.pick().rid == 1
        pool.crash(pool.replicas[1])
        assert pool.pick() is None
        assert pool.n_alive() == 1 and pool.n_serving() == 1

    def test_crash_promotes_spare_in_order(self, model):
        pool = self.make_pool(model, n=2, spares=2)
        spare = pool.crash(pool.replicas[0])
        assert spare.rid == 2 and spare.state is ReplicaState.WARMING
        assert spare in pool.replicas and pool.n_spares_left() == 1
        assert [r.state for r in pool.replicas] == [
            ReplicaState.DEAD, ReplicaState.IDLE, ReplicaState.WARMING
        ]

    def test_exhausted(self, model):
        pool = self.make_pool(model, n=1, spares=1)
        assert not pool.exhausted()
        s = pool.crash(pool.replicas[0])
        assert not pool.exhausted()
        pool.mark_ready(s)
        assert pool.crash(s) is None
        assert pool.exhausted()

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            ReplicaPool([])
