"""Tests for the shape-keyed kernel autotuner (repro.primitives.autotune)."""

import json

import numpy as np
import pytest

from repro.obs import MetricsRegistry
from repro.primitives import autotune, registry
from repro.primitives.autotune import (
    CACHE_VERSION,
    Autotuner,
    TuningCache,
    conv_shape_key,
    default_cache_path,
    warm_conv_shapes,
)


@pytest.fixture(autouse=True)
def _isolate_tuner():
    """Never let tests touch the user's real ~/.cache tuning file."""
    yield
    autotune.set_tuner(None)
    registry.set_metrics(None)


def _tuner(tmp_path, repeats=1):
    return Autotuner(TuningCache(tmp_path / "autotune.json"), repeats=repeats)


class TestShapeKey:
    def test_fields(self):
        key = conv_shape_key("forward", (1, 4, 8, 8, 8), (16, 4, 3, 3, 3))
        assert key == "forward|a=1x4x8x8x8|b=16x4x3x3x3|s=1x1x1|p=0x0x0|l=ncdhw"

    def test_stride_normalization(self):
        a = conv_shape_key("forward", (1, 4, 8, 8, 8), (16, 4, 3, 3, 3), stride=2)
        b = conv_shape_key("forward", (1, 4, 8, 8, 8), (16, 4, 3, 3, 3), stride=(2, 2, 2))
        assert a == b

    def test_distinct_ops_distinct_keys(self):
        args = ((1, 4, 8, 8, 8), (16, 4, 3, 3, 3))
        assert conv_shape_key("forward", *args) != conv_shape_key("backward_data", *args)


class TestTuningCache:
    def test_persist_and_reload(self, tmp_path):
        path = tmp_path / "c.json"
        cache = TuningCache(path)
        cache.put("k", {"impl": "gemm", "times_ms": {}, "repeats": 1})
        fresh = TuningCache(path)
        assert fresh.get("k")["impl"] == "gemm"
        assert len(fresh) == 1

    def test_version_mismatch_discards(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "version": CACHE_VERSION + 1,
            "entries": {"k": {"impl": "gemm"}},
        }))
        assert TuningCache(path).get("k") is None

    def test_previous_version_file_discarded(self, tmp_path):
        """Winners timed against the pre-rewrite ``gemm`` (version 1 files)
        must not be replayed: the version bump discards them, counted."""
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "version": 1,
            "entries": {"k": {"impl": "blocked", "times_ms": {"gemm": 24.4, "blocked": 13.2}}},
        }))
        metrics = MetricsRegistry()
        registry.set_metrics(metrics)
        cache = TuningCache(path)
        assert cache.get("k") is None and len(cache) == 0
        assert metrics.snapshot()["primitives.autotune.invalidated"] == 1

    def test_corrupt_file_ignored(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("not json{")
        cache = TuningCache(path)
        assert len(cache) == 0
        cache.put("k", {"impl": "direct"})  # still writable
        assert TuningCache(path).get("k")["impl"] == "direct"

    def test_clear_deletes_file(self, tmp_path):
        path = tmp_path / "c.json"
        cache = TuningCache(path)
        cache.put("k", {"impl": "gemm"})
        assert path.exists()
        cache.clear()
        assert not path.exists()
        assert len(cache) == 0

    def test_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "env" / "autotune.json"
        monkeypatch.setenv("REPRO_AUTOTUNE_CACHE", str(target))
        assert default_cache_path() == target
        cache = TuningCache()  # no explicit path -> env
        cache.put("k", {"impl": "gemm"})
        assert target.exists()

    def test_saved_file_is_versioned(self, tmp_path):
        path = tmp_path / "c.json"
        TuningCache(path).put("k", {"impl": "gemm"})
        assert json.loads(path.read_text())["version"] == CACHE_VERSION


class TestAutotuner:
    def test_tune_returns_winner_output(self, tmp_path):
        tuner = _tuner(tmp_path)
        name, out = tuner.tune("k", ["a", "b"], lambda n: f"out-{n}")
        assert name in ("a", "b")
        assert out == f"out-{name}"
        assert tuner.misses == 1 and tuner.hits == 0

    def test_cached_choice_after_tune(self, tmp_path):
        tuner = _tuner(tmp_path)
        name, _ = tuner.tune("k", ["a"], lambda n: 0)
        assert tuner.cached_choice("k") == name == "a"
        assert tuner.hits == 1

    def test_no_candidates_raises(self, tmp_path):
        with pytest.raises(ValueError):
            _tuner(tmp_path).tune("k", [], lambda n: 0)

    def test_record_shape(self, tmp_path):
        tuner = _tuner(tmp_path, repeats=3)
        tuner.tune("k", ["a", "b"], lambda n: 0)
        rec = tuner.cache.get("k")
        assert rec["repeats"] == 3
        assert set(rec["times_ms"]) == {"a", "b"}


class TestAutoDispatch:
    """The registry's "auto" policy driven end to end."""

    def _io(self, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 4, 6, 6, 6)).astype(np.float32)
        w = (rng.standard_normal((8, 4, 3, 3, 3)) * 0.1).astype(np.float32)
        return x, w

    def test_warm_replay_is_bitwise_deterministic(self, tmp_path):
        """Acceptance gate: with a persisted cache, `auto` reproduces the
        same dispatch — hence bitwise the same output — run after run.
        Fresh-cache tuning is the only timed phase."""
        x, w = self._io()
        path = tmp_path / "autotune.json"
        autotune.set_tuner(Autotuner(TuningCache(path), repeats=1))
        first = registry.get_impl(registry.AUTO_IMPL).forward(x, w)  # timed phase
        # Simulate a fresh process: new tuner over the *persisted* file.
        outs = []
        for _ in range(3):
            autotune.set_tuner(Autotuner(TuningCache(path), repeats=1))
            outs.append(registry.get_impl(registry.AUTO_IMPL).forward(x, w))
        for out in outs:
            assert np.array_equal(out, outs[0])
        # The replayed output matches whichever impl won the race.
        key = conv_shape_key("forward", x.shape, w.shape)
        winner = TuningCache(path).get(key)["impl"]
        assert np.array_equal(outs[0], registry.get_impl(winner).forward(x, w))
        assert first.shape == outs[0].shape

    def test_forced_winner_controls_dispatch(self, tmp_path):
        """A hand-written cache entry IS the dispatch table."""
        x, w = self._io()
        key = conv_shape_key("forward", x.shape, w.shape)
        for forced in ("gemm", "direct", "blocked"):
            cache = TuningCache(tmp_path / f"{forced}.json")
            cache.put(key, {"impl": forced, "times_ms": {}, "repeats": 1})
            autotune.set_tuner(Autotuner(cache))
            metrics = MetricsRegistry()
            registry.set_metrics(metrics)
            out = registry.get_impl(registry.AUTO_IMPL).forward(x, w)
            registry.set_metrics(None)
            assert np.array_equal(out, registry.get_impl(forced).forward(x, w))
            snap = metrics.snapshot()
            assert snap[f"primitives.conv3d.auto.forward.{forced}"] == 1
            assert snap["primitives.autotune.hits"] == 1

    def test_unknown_cached_impl_retunes(self, tmp_path):
        x, w = self._io()
        key = conv_shape_key("forward", x.shape, w.shape)
        cache = TuningCache(tmp_path / "c.json")
        cache.put(key, {"impl": "cudnn", "times_ms": {}, "repeats": 1})
        tuner = Autotuner(cache, repeats=1)
        autotune.set_tuner(tuner)
        registry.get_impl(registry.AUTO_IMPL).forward(x, w)
        assert tuner.misses == 1  # stale entry was re-raced
        assert cache.get(key)["impl"] in registry.available_impls()


class TestWarmConvShapes:
    def test_warm_covers_all_ops(self, tmp_path):
        tuner = _tuner(tmp_path)
        decisions = warm_conv_shapes([(4, 8, 6, 3, 1, 0)], tuner=tuner)
        keys = [k for k, _ in decisions]
        assert len(keys) == 3
        assert any(k.startswith("forward|") for k in keys)
        assert any(k.startswith("backward_data|") for k in keys)
        assert any(k.startswith("backward_weights|") for k in keys)
        for _, impl in decisions:
            assert impl in registry.available_impls()

    def test_warm_is_idempotent(self, tmp_path):
        tuner = _tuner(tmp_path)
        warm_conv_shapes([(4, 8, 6, 3, 1, 0)], tuner=tuner)
        timed_once = tuner.misses
        warm_conv_shapes([(4, 8, 6, 3, 1, 0)], tuner=tuner)
        assert tuner.misses == timed_once  # all warm, nothing re-timed
