"""Tests for MLPlugin."""

import numpy as np
import pytest

from repro.comm.plugin import MLPlugin, PluginConfig
from repro.comm.serial import SerialCommunicator
from repro.comm.elastic import ThreadedGroup


class TestPluginConfig:
    def test_chunks(self):
        assert PluginConfig(teams=2, threads_per_team=4).n_chunks == 8

    def test_defaults_match_cori(self):
        cfg = PluginConfig()
        assert cfg.teams == 1 and cfg.threads_per_team == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            PluginConfig(teams=0)


class TestMLPluginSerial:
    def test_requires_init(self):
        plugin = MLPlugin(SerialCommunicator())
        with pytest.raises(RuntimeError):
            plugin.gradients([np.ones(4)])

    def test_finalize_disables(self):
        plugin = MLPlugin(SerialCommunicator()).init()
        plugin.finalize()
        with pytest.raises(RuntimeError):
            plugin.average_scalar(1.0)

    def test_single_rank_identity(self):
        plugin = MLPlugin(SerialCommunicator()).init()
        grads = [np.arange(6, dtype=np.float32).reshape(2, 3), np.ones(2, dtype=np.float32)]
        out = plugin.gradients(grads)
        assert [o.shape for o in out] == [(2, 3), (2,)]
        np.testing.assert_allclose(out[0], grads[0])
        np.testing.assert_allclose(out[1], grads[1])

    def test_stats(self):
        plugin = MLPlugin(SerialCommunicator(), PluginConfig(teams=1, threads_per_team=2)).init()
        plugin.gradients([np.ones(8, dtype=np.float32)])
        assert plugin.stats.calls == 1
        assert plugin.stats.bytes_reduced == 32
        assert plugin.stats.chunks_reduced == 2
        assert plugin.stats.seconds > 0

    def test_more_chunks_than_elements(self):
        plugin = MLPlugin(SerialCommunicator(), PluginConfig(teams=1, threads_per_team=16)).init()
        out = plugin.gradients([np.ones(3, dtype=np.float32)])
        np.testing.assert_allclose(out[0], 1.0)

    def test_average_scalar(self):
        plugin = MLPlugin(SerialCommunicator()).init()
        assert plugin.average_scalar(2.5) == pytest.approx(2.5)


class TestMLPluginMultiRank:
    def test_gradients_globally_averaged(self):
        group = ThreadedGroup(4)

        def body(comm):
            plugin = MLPlugin(comm).init()
            grads = [
                np.full((3, 2), float(comm.rank), dtype=np.float32),
                np.full(5, float(comm.rank * 2), dtype=np.float32),
            ]
            return plugin.gradients(grads)

        results = group.run(body)
        for out in results:
            np.testing.assert_allclose(out[0], 1.5)  # mean(0,1,2,3)
            np.testing.assert_allclose(out[1], 3.0)  # mean(0,2,4,6)

    def test_all_ranks_identical_result(self):
        rng = np.random.default_rng(0)
        payloads = [rng.standard_normal(97).astype(np.float32) for _ in range(3)]
        group = ThreadedGroup(3)

        def body(comm):
            return MLPlugin(comm).init().gradients([payloads[comm.rank]])[0]

        results = group.run(body)
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[1], results[2])

    def test_broadcast_parameters(self):
        group = ThreadedGroup(3)

        def body(comm):
            params = [np.full(4, float(comm.rank), dtype=np.float32)]
            MLPlugin(comm).init().broadcast_parameters(params)
            return params[0]

        for p in group.run(body):
            np.testing.assert_allclose(p, 0.0)  # everyone got rank 0's values

    def test_average_scalar_multirank(self):
        group = ThreadedGroup(4)

        def body(comm):
            return MLPlugin(comm).init().average_scalar(float(comm.rank))

        for v in group.run(body):
            assert v == pytest.approx(1.5)

    def test_chunked_equals_unchunked(self):
        rng = np.random.default_rng(1)
        payloads = [rng.standard_normal(101).astype(np.float32) for _ in range(2)]

        def run_with(chunks):
            group = ThreadedGroup(2)

            def body(comm):
                cfg = PluginConfig(teams=1, threads_per_team=chunks)
                return MLPlugin(comm, cfg).init().gradients([payloads[comm.rank]])[0]

            return group.run(body)[0]

        np.testing.assert_allclose(run_with(1), run_with(7), rtol=1e-6, atol=1e-7)
