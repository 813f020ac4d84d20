"""Tests for the Horovod-style aggregation backend."""

import numpy as np
import pytest

from repro.comm.horovod import HorovodLike
from repro.comm.plugin import MLPlugin
from repro.comm.serial import SerialCommunicator
from repro.comm.elastic import ThreadedGroup


class TestHorovodLike:
    def test_requires_init(self):
        hvd = HorovodLike(SerialCommunicator())
        with pytest.raises(RuntimeError):
            hvd.gradients([np.ones(3)])
        with pytest.raises(RuntimeError):
            hvd.average_scalar(1.0)

    def test_single_rank_identity(self):
        hvd = HorovodLike(SerialCommunicator()).init()
        grads = [np.arange(4, dtype=np.float32).reshape(2, 2)]
        out = hvd.gradients(grads)
        np.testing.assert_allclose(out[0], grads[0])
        assert hvd.stats.calls == 1
        assert hvd.stats.bytes_reduced == 16

    def test_multirank_average(self):
        group = ThreadedGroup(4)

        def body(comm):
            hvd = HorovodLike(comm).init()
            return hvd.gradients([np.full(5, float(comm.rank), dtype=np.float32)])[0]

        for out in group.run(body):
            np.testing.assert_allclose(out, 1.5)

    def test_broadcast_parameters(self):
        group = ThreadedGroup(3)

        def body(comm):
            params = [np.full(3, float(comm.rank), dtype=np.float32)]
            HorovodLike(comm).init().broadcast_parameters(params)
            return params[0]

        for p in group.run(body):
            np.testing.assert_allclose(p, 0.0)

    def test_matches_plugin_numerics(self):
        """Horovod-style fused allreduce and the chunked plugin produce
        identical averages — the backends are interchangeable."""
        rng = np.random.default_rng(0)
        payloads = [
            [rng.standard_normal((3, 2)).astype(np.float32), rng.standard_normal(7).astype(np.float32)]
            for _ in range(3)
        ]

        def run(backend_cls):
            group = ThreadedGroup(3)

            def body(comm):
                backend = backend_cls(comm).init()
                return backend.gradients([g.copy() for g in payloads[comm.rank]])

            return group.run(body)[0]

        hvd_out = run(HorovodLike)
        plugin_out = run(MLPlugin)
        for a, b in zip(hvd_out, plugin_out):
            np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-7)

    def test_average_scalar(self):
        group = ThreadedGroup(2)
        outs = group.run(lambda comm: HorovodLike(comm).init().average_scalar(float(comm.rank)))
        assert outs == [0.5, 0.5]

    def test_trainer_accepts_horovod_backend(self):
        """The local backend's aggregator slot is backend-agnostic."""
        from repro.core.engine import EngineConfig, LocalBackend, TrainingEngine
        from repro.core.model import CosmoFlowModel
        from repro.core.optimizer import CosmoFlowOptimizer
        from repro.core.topology import ConvSpec, CosmoFlowConfig
        from repro.core.trainer import InMemoryData

        cfg = CosmoFlowConfig(
            name="micro4h", input_size=4, conv_layers=(ConvSpec(16, 2),),
            fc_sizes=(8,), n_outputs=3,
        )
        rng = np.random.default_rng(1)
        data = InMemoryData(
            rng.standard_normal((4, 1, 4, 4, 4)).astype(np.float32),
            rng.uniform(0.2, 0.8, (4, 3)).astype(np.float32),
        )
        model = CosmoFlowModel(cfg, seed=0)
        backend = LocalBackend(
            model, CosmoFlowOptimizer(model.parameter_arrays()), data,
            aggregator=HorovodLike(SerialCommunicator()).init(),
        )
        hist = TrainingEngine(backend, EngineConfig(epochs=1, validate=False)).run()
        assert np.isfinite(hist.train_loss[0])
