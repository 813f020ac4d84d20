"""Compressed allreduce: compressor units, error-feedback identities,
and golden bitwise replay across execution backends."""

import numpy as np
import pytest

from repro.comm.compression import (
    COMPRESSION_MODES,
    Fp16Compressor,
    TopKCompressor,
    compression_ratio,
    make_compressor,
)
from repro.comm.plugin import PluginConfig
from repro.core.elastic import ElasticConfig
from repro.core.engine import (
    EngineConfig,
    SteppedBackend,
    ThreadedBackend,
    TrainingEngine,
)
from repro.core.optimizer import OptimizerConfig
from repro.core.process_backend import ProcessBackend
from repro.core.topology import tiny_16
from repro.core.trainer import InMemoryData


def make_dataset(n=12, seed=3, size=16):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, size, size, size)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(n, 3)).astype(np.float32)
    return InMemoryData(x, y)


class TestFp16Compressor:
    def test_values_round_through_fp16(self):
        c = Fp16Compressor()
        g = np.random.default_rng(0).standard_normal(1000).astype(np.float32)
        out = c.compress(g)
        assert np.array_equal(out, g.astype(np.float16).astype(np.float32))

    def test_wire_bytes_halved(self):
        c = Fp16Compressor()
        c.compress(np.zeros(1000, np.float32))
        assert c.stats.bytes_in == 4000
        assert c.stats.bytes_wire == 2000
        assert c.stats.ratio == 0.5

    def test_deterministic(self):
        g = np.random.default_rng(1).standard_normal(257).astype(np.float32)
        assert np.array_equal(Fp16Compressor().compress(g), Fp16Compressor().compress(g))


class TestTopKCompressor:
    def test_keeps_largest_magnitudes(self):
        c = TopKCompressor(fraction=0.25)
        g = np.asarray([0.1, -5.0, 0.2, 3.0, -0.3, 0.05, 1.0, -0.01], np.float32)
        out = c.compress(g)
        # k = 2 of 8: keeps -5.0 and 3.0, zeroes the rest.
        expect = np.zeros(8, np.float32)
        expect[1], expect[3] = -5.0, 3.0
        assert np.array_equal(out, expect)

    def test_tie_break_is_by_index(self):
        c = TopKCompressor(fraction=0.5)
        g = np.asarray([1.0, -1.0, 1.0, -1.0], np.float32)
        out = c.compress(g)
        assert np.array_equal(out, np.asarray([1.0, -1.0, 0.0, 0.0], np.float32))

    def test_error_feedback_residual_identity(self):
        # Invariant: sent + residual == input + previous residual.
        c = TopKCompressor(fraction=0.1)
        rng = np.random.default_rng(2)
        prev_residual = np.zeros(100, np.float32)
        for _ in range(5):
            g = rng.standard_normal(100).astype(np.float32)
            sent = c.compress(g)
            assert np.allclose(sent + c.residual, g + prev_residual, atol=0)
            prev_residual = c.residual.copy()

    def test_residual_recovers_dropped_mass(self):
        # A small element dropped every step eventually accumulates
        # enough residual to be sent.
        c = TopKCompressor(fraction=0.25)
        g = np.asarray([10.0, 0.0, 0.0, 1.0], np.float32)
        first = c.compress(g)  # k=1: sends the 10
        assert first[3] == 0.0 and c.residual[3] == 1.0
        # Feed zeros: residual alone should eventually win the top-1 slot.
        for _ in range(12):
            out = c.compress(np.asarray([0.0, 0.0, 0.0, 1.0], np.float32))
        assert out[3] > 0.0

    def test_wire_bytes(self):
        c = TopKCompressor(fraction=0.1)
        c.compress(np.random.default_rng(0).standard_normal(1000).astype(np.float32))
        assert c.stats.bytes_in == 4000
        assert c.stats.bytes_wire == 100 * 8  # k=100 at 8 bytes each
        assert c.stats.bytes_in / c.stats.bytes_wire == 5.0  # the 5x claim

    def test_k_at_least_one(self):
        c = TopKCompressor(fraction=0.01)
        out = c.compress(np.asarray([3.0, 1.0], np.float32))
        assert np.count_nonzero(out) == 1

    def test_nonfinite_passthrough_protects_residual(self):
        # A mixed-precision overflow step must not poison the residual.
        c = TopKCompressor(fraction=0.5)
        c.compress(np.asarray([1.0, 2.0, 3.0, 4.0], np.float32))
        residual_before = c.residual.copy()
        bad = np.asarray([np.inf, 0.0, 0.0, 0.0], np.float32)
        out = c.compress(bad)
        assert np.array_equal(out, bad)  # signal passes through
        assert np.array_equal(c.residual, residual_before)
        assert np.all(np.isfinite(c.residual))

    def test_reset_drops_residual(self):
        c = TopKCompressor(fraction=0.5)
        c.compress(np.ones(4, np.float32))
        c.reset()
        assert c.residual is None

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            TopKCompressor(fraction=0.0)
        with pytest.raises(ValueError):
            TopKCompressor(fraction=1.5)


class TestFactoryAndRatio:
    def test_none_returns_none(self):
        assert make_compressor("none") is None

    def test_modes(self):
        assert isinstance(make_compressor("fp16"), Fp16Compressor)
        c = make_compressor("topk", 0.2)
        assert isinstance(c, TopKCompressor)
        assert c.fraction == 0.2

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            make_compressor("zstd")

    def test_analytical_ratios(self):
        assert compression_ratio("none") == 1.0
        assert compression_ratio("fp16") == 0.5
        assert compression_ratio("topk", 0.1) == pytest.approx(0.2)
        assert compression_ratio("topk", 0.9) == 1.0  # clamped

    def test_plugin_config_validation(self):
        with pytest.raises(ValueError):
            PluginConfig(compression="zstd")
        with pytest.raises(ValueError):
            PluginConfig(compression="topk", topk_fraction=0.0)
        assert PluginConfig().build_compressor() is None
        assert PluginConfig(compression="fp16").build_compressor() is not None


def _run(backend_cls, compression, precision="fp32", n=2, epochs=2, seed=0, **policy):
    backend = backend_cls(
        tiny_16(),
        make_dataset(),
        optimizer_config=OptimizerConfig(decay_steps=100, precision=precision),
        n_ranks=n,
        plugin_config=PluginConfig(compression=compression),
        **policy,
    )
    engine = TrainingEngine(backend, EngineConfig(epochs=epochs, seed=seed))
    engine.run()
    return engine.final_model.get_flat_parameters(), engine.group_stats, engine.history


class TestGoldenCrossBackend:
    """Golden bitwise fixtures: compressed runs replay identically
    across the serial (stepped) and threaded backends, and mode "none"
    stays bitwise equal to the pre-compression fp32 path."""

    @pytest.mark.parametrize("compression", ["fp16", "topk"])
    def test_stepped_equals_threaded(self, compression):
        p_stepped, _, _ = _run(SteppedBackend, compression)
        p_threaded, _, _ = _run(ThreadedBackend, compression)
        assert np.array_equal(p_stepped, p_threaded)

    @pytest.mark.parametrize("compression", ["fp16", "topk"])
    def test_replay_is_deterministic(self, compression):
        p1, s1, h1 = _run(SteppedBackend, compression)
        p2, s2, h2 = _run(SteppedBackend, compression)
        assert np.array_equal(p1, p2)
        assert h1.train_loss == h2.train_loss
        assert s1["compression_bytes_wire"] == s2["compression_bytes_wire"]

    def test_none_bitwise_equals_uncompressed_path(self):
        # compression="none" must not merely approximate the original
        # fp32 path — it must not touch it.  Run through a config with
        # the field defaulted vs explicitly "none".
        p_default, s_default, _ = _run(SteppedBackend, "none")
        backend = SteppedBackend(
            tiny_16(),
            make_dataset(),
            optimizer_config=OptimizerConfig(decay_steps=100),
            n_ranks=2,
        )
        engine = TrainingEngine(backend, EngineConfig(epochs=2, seed=0))
        engine.run()
        assert np.array_equal(
            p_default, engine.final_model.get_flat_parameters()
        )
        assert "compression" not in s_default  # no counters for "none"

    def test_compressed_under_fp16_precision_cross_backend(self):
        p1, _, _ = _run(SteppedBackend, "topk", precision="fp16")
        p2, _, _ = _run(ThreadedBackend, "topk", precision="fp16")
        assert np.array_equal(p1, p2)

    def test_stats_surface_byte_savings(self):
        _, stats, _ = _run(SteppedBackend, "topk")
        assert stats["compression"] == "topk"
        assert stats["compression_bytes_in"] > stats["compression_bytes_wire"]
        assert (
            stats["compression_bytes_saved"]
            == stats["compression_bytes_in"] - stats["compression_bytes_wire"]
        )
        assert stats["compression_bytes_in"] / stats["compression_bytes_wire"] >= 4.9

    def test_compression_changes_trajectory(self):
        # Sanity that the compressors are actually in the loop: a lossy
        # mode must not be bitwise identical to the exact path.
        p_none, _, _ = _run(SteppedBackend, "none")
        p_topk, _, _ = _run(SteppedBackend, "topk")
        assert not np.array_equal(p_none, p_topk)


class TestElasticAndProcessBackends:
    @pytest.mark.parametrize("compression", ["fp16", "topk"])
    def test_elastic_faultfree_matches_threaded(self, compression):
        p_elastic, _, _ = _run(ThreadedBackend, compression, elastic=ElasticConfig())
        p_threaded, _, _ = _run(ThreadedBackend, compression)
        assert np.array_equal(p_elastic, p_threaded)

    def test_process_backend_matches_stepped_topk(self):
        p_process, _, _ = _run(ProcessBackend, "topk", epochs=1)
        p_stepped, _, _ = _run(SteppedBackend, "topk", epochs=1)
        assert np.array_equal(p_process, p_stepped)
