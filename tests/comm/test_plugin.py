"""The gradient message and the rank contexts' aggregation.

Every rank flattens its gradients into one message
(:func:`repro.comm.plugin.gradient_message`) and a thread or process
rank averages it in one allreduce (``RankContext.aggregate``); its
loss goes in a float64 1-vector of its own.
"""

import threading

import numpy as np
import pytest

from repro.comm.communicator import ReduceOp
from repro.comm.compression import Fp16Compressor
from repro.comm.elastic import ThreadedGroup
from repro.comm.plugin import PluginConfig, gradient_message
from repro.comm.serial import SerialCommunicator
from repro.core.engine import EngineConfig, RankContext, ThreadedBackend, TrainingEngine
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import OptimizerConfig
from repro.core.process_backend import ProcessBackend
from repro.core.topology import tiny_16
from repro.core.trainer import InMemoryData
from repro.obs import Tracer


def rank_context(comm, compressor=None):
    """The aggregating part of one rank's context: its communicator and
    compressor (no model, stream or engine)."""
    return RankContext(
        None, model=None, optimizer=None, stream=None, steps_per_epoch=1,
        comm=comm, compressor=compressor,
    )


class CountingComm(SerialCommunicator):
    """A one-rank communicator that records each allreduce's payload."""

    def __init__(self):
        self.calls = []

    def allreduce(self, array, op=ReduceOp.SUM):
        self.calls.append((np.asarray(array).dtype, np.asarray(array).size, op))
        return super().allreduce(array, op)


def make_dataset(n=8, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, 16, 16, 16)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(n, 3)).astype(np.float32)
    return InMemoryData(x, y)


class TestPluginConfig:
    def test_invalid(self):
        with pytest.raises(ValueError):
            PluginConfig(compression="int8")
        with pytest.raises(ValueError):
            PluginConfig(topk_fraction=1.5)


class TestGradientMessage:
    def test_flattens_in_order(self):
        grads = [np.arange(6, dtype=np.float32).reshape(2, 3), np.full(2, 7, np.float32)]
        msg = gradient_message(grads)
        np.testing.assert_array_equal(msg, [0, 1, 2, 3, 4, 5, 7, 7])
        assert msg.dtype == np.float32

    def test_goes_through_the_compressor(self):
        grads = [np.array([1 / 3, 2e5], np.float32), np.array([-0.1], np.float32)]
        compressor = Fp16Compressor()
        msg = gradient_message(grads, compressor)
        want = np.array([1 / 3, 2e5, -0.1], np.float32)
        with np.errstate(over="ignore"):
            want = want.astype(np.float16).astype(np.float32)
        np.testing.assert_array_equal(msg, want)
        assert compressor.stats.calls == 1 and compressor.stats.bytes_in == 12


class TestRankAggregateSerial:
    def test_single_rank_identity(self):
        grads = [np.arange(6, dtype=np.float32).reshape(2, 3), np.ones(2, dtype=np.float32)]
        loss, out = rank_context(SerialCommunicator()).aggregate(0.25, grads)
        assert loss == 0.25
        assert [o.shape for o in out] == [(2, 3), (2,)]
        np.testing.assert_array_equal(out[0], grads[0])
        np.testing.assert_array_equal(out[1], grads[1])

    def test_one_gradient_allreduce_and_one_loss_allreduce(self):
        comm = CountingComm()
        grads = [np.ones((3, 4), np.float32), np.ones(5, np.float32)]
        rank_context(comm).aggregate(1.0, grads)
        assert comm.calls == [
            (np.dtype(np.float32), 17, ReduceOp.MEAN),
            (np.dtype(np.float64), 1, ReduceOp.MEAN),
        ]

    def test_average_scalar(self):
        assert rank_context(SerialCommunicator()).aggregate_scalar([2.5]) == 2.5


class TestRankAggregateMultiRank:
    def test_gradients_globally_averaged(self):
        def body(comm):
            grads = [
                np.full((3, 2), float(comm.rank), dtype=np.float32),
                np.full(5, float(comm.rank * 2), dtype=np.float32),
            ]
            return rank_context(comm).aggregate(float(comm.rank), grads)

        for loss, out in ThreadedGroup(4).run(body):
            assert loss == 1.5
            np.testing.assert_allclose(out[0], 1.5)  # mean(0,1,2,3)
            np.testing.assert_allclose(out[1], 3.0)  # mean(0,2,4,6)

    def test_all_ranks_identical_result(self):
        rng = np.random.default_rng(0)
        payloads = [rng.standard_normal(97).astype(np.float32) for _ in range(3)]

        def body(comm):
            return rank_context(comm).aggregate(0.0, [payloads[comm.rank]])[1][0]

        results = ThreadedGroup(3).run(body)
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[1], results[2])

    def test_average_scalar_multirank(self):
        def body(comm):
            return rank_context(comm).aggregate_scalar([float(comm.rank)])

        for v in ThreadedGroup(4).run(body):
            assert v == pytest.approx(1.5)


class TestPreamble:
    def test_broadcast_parameters(self, monkeypatch):
        """Every rank starts from rank 0's parameters, sent as one flat bcast."""
        tracer = Tracer()
        backend = ThreadedBackend(tiny_16(), make_dataset(), n_ranks=3)
        engine = TrainingEngine(backend, EngineConfig(epochs=1), tracer=tracer)
        replica = backend._replica

        def rank_shifted_replica(engine):
            model, optimizer = replica(engine)
            rank = int(threading.current_thread().name.split("-")[1])
            model.set_flat_parameters(model.get_flat_parameters() + rank)
            return model, optimizer

        monkeypatch.setattr(backend, "_replica", rank_shifted_replica)

        def body(comm):
            rc = backend._make_context(engine, comm, engine.build_callbacks())
            return rc.model.get_flat_parameters()

        want = CosmoFlowModel(tiny_16(), seed=engine.config.seed).get_flat_parameters()
        for params in ThreadedGroup(3, tracer=tracer).run(body):
            np.testing.assert_array_equal(params, want)
        assert sorted(e.track for e in tracer.ordered() if e.name == "bcast") == [0, 1, 2]


@pytest.mark.parametrize("backend_cls", [ThreadedBackend, ProcessBackend])
def test_a_step_is_one_gradient_and_one_loss_reduction(backend_cls, tmp_path, monkeypatch):
    """2 reductions a step, plus the divergence check's 2 at run end; the
    preamble broadcasts rank 0's parameters as one message.  Thread and
    process ranks alike leave one ``comm`` span per collective on their
    own track."""
    monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path))
    tracer = Tracer()
    backend = backend_cls(
        tiny_16(), make_dataset(), optimizer_config=OptimizerConfig(decay_steps=50), n_ranks=2
    )
    engine = TrainingEngine(backend, EngineConfig(epochs=2, validate=False), tracer=tracer)
    engine.run()
    steps = 2 * 4  # 2 epochs of 8 samples over 2 ranks at batch 1
    assert engine.group_stats["reductions"] == 2 * steps + 2

    def tracks(name):
        return sorted(e.track for e in tracer.ordered() if e.name == name and e.cat == "comm")

    assert tracks("allreduce") == [0] * (2 * steps + 2) + [1] * (2 * steps + 2)
    assert tracks("bcast") == [0, 1]
