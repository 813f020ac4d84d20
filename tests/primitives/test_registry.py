"""Tests for the conv implementation registry."""

import re

import numpy as np
import pytest

from repro import primitives
from repro.obs import MetricsRegistry
from repro.primitives import registry as registry_mod
from repro.primitives.registry import (
    ConvImpl,
    available_impls,
    get_default_impl,
    get_impl,
    register_impl,
    set_default_impl,
    set_metrics,
)
from repro.tensor.tensor import Tensor


@pytest.fixture(autouse=True)
def restore_default():
    yield
    set_default_impl("gemm")
    set_metrics(None)


class TestRegistry:
    def test_all_registered(self):
        assert available_impls() == ["gemm", "int4", "int8"]

    def test_default_is_gemm(self):
        assert get_impl().name == "gemm"
        assert get_default_impl() == "gemm"

    def test_lookup_by_name(self):
        assert get_impl("int8").name == "int8"

    def test_set_default(self):
        set_default_impl("int8")
        assert get_impl().name == "int8"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_impl("cudnn")
        with pytest.raises(KeyError):
            set_default_impl("cudnn")

    def test_pack_survives_instrumentation(self):
        """Only ``gemm`` offers ``pack``; the counting wrappers must hand
        the packed operand through and count the calls as before."""
        assert get_impl("int8").pack is None
        metrics = MetricsRegistry()
        set_metrics(metrics)
        k = get_impl("gemm")
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 16, 5, 5, 5)).astype(np.float32)
        w = rng.standard_normal((4, 16, 3, 3, 3)).astype(np.float32)
        g = rng.standard_normal((1, 4, 3, 3, 3)).astype(np.float32)
        packed = k.pack(x, (3, 3, 3), 1, 0)
        np.testing.assert_array_equal(k.forward(x, w, None, 1, 0, packed=packed), k.forward(x, w))
        np.testing.assert_array_equal(
            k.backward_weights(x, g, (3, 3, 3), 1, 0, packed=packed),
            k.backward_weights(x, g, (3, 3, 3)),
        )
        snap = metrics.snapshot()
        assert snap["primitives.conv3d.forward.calls"] == 2
        assert snap["primitives.conv3d.backward_weights.calls"] == 2

    def test_fallbacks_are_counted(self):
        """int8's backward passes are gemm's: each substitution lands on
        the metrics, forwards do not."""
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 4, 5, 5, 5)).astype(np.float32)
        w = rng.standard_normal((4, 4, 3, 3, 3)).astype(np.float32)
        g = rng.standard_normal((1, 4, 3, 3, 3)).astype(np.float32)
        metrics = MetricsRegistry()
        set_metrics(metrics)
        q = get_impl("int8")
        q.forward(x, w)
        q.backward_data(g, w, (5, 5, 5))
        q.backward_weights(x, g, (3, 3, 3))
        snap = metrics.snapshot()
        assert snap["primitives.conv3d.fallbacks"] == 2
        assert snap["primitives.conv3d.int8.backward_data.fallbacks"] == 1
        assert snap["primitives.conv3d.int8.backward_weights.fallbacks"] == 1


class TestOneFamily:
    """``direct``, ``blocked``, the layout tag and the autotuner lost every
    cell of the race (docs/architecture.md, "One kernel family") and left
    ``src/`` in PR 18; these fail if the fork comes back."""

    @pytest.mark.parametrize("name", ["direct", "blocked", "auto"])
    def test_removed_families_are_unknown(self, name):
        with pytest.raises(KeyError, match=r"available: \['gemm', 'int4', 'int8'\]"):
            get_impl(name)

    def test_tensor_carries_no_layout_tag(self):
        assert {"layout", "channels"}.isdisjoint(Tensor.__slots__)

    def test_package_exports_no_layout_or_tuner_names(self):
        pattern = re.compile("blocked|direct|layout|reorder|tun", re.IGNORECASE)
        assert [n for n in primitives.__all__ if pattern.search(n)] == []


class TestRegisterImpl:
    def test_register_and_replace(self):
        original = registry_mod._IMPLS["gemm"]
        calls = []

        def spy_forward(x, w, bias=None, stride=1, padding=0):
            calls.append("hit")
            return original.forward(x, w, bias, stride=stride, padding=padding)

        try:
            register_impl(ConvImpl(
                name="gemm",
                forward=spy_forward,
                backward_data=original.backward_data,
                backward_weights=original.backward_weights,
            ))
            x = np.zeros((1, 2, 3, 3, 3), dtype=np.float32)
            w = np.zeros((2, 2, 2, 2, 2), dtype=np.float32)
            get_impl("gemm").forward(x, w)
            assert calls == ["hit"]
        finally:
            register_impl(original)

    def test_replace_invalidates_instrumented_wrappers(self):
        """Satellite b: a re-registered impl must not be shadowed by a
        stale instrumented wrapper around its predecessor."""
        original = registry_mod._IMPLS["gemm"]
        metrics = MetricsRegistry()
        set_metrics(metrics)
        x = np.zeros((1, 2, 3, 3, 3), dtype=np.float32)
        w = np.zeros((2, 2, 2, 2, 2), dtype=np.float32)
        get_impl("gemm").forward(x, w)  # builds + caches the wrapper
        calls = []

        def spy_forward(xx, ww, bias=None, stride=1, padding=0):
            calls.append("hit")
            return original.forward(xx, ww, bias, stride=stride, padding=padding)

        try:
            register_impl(ConvImpl(
                name="gemm",
                forward=spy_forward,
                backward_data=original.backward_data,
                backward_weights=original.backward_weights,
            ))
            get_impl("gemm").forward(x, w)
            assert calls == ["hit"]  # wrapper was rebuilt over the new impl
        finally:
            register_impl(original)

    def test_set_metrics_invalidates_instrumented_wrappers(self):
        """Counters must land on the currently attached registry, never a
        previously attached one."""
        first = MetricsRegistry()
        set_metrics(first)
        x = np.zeros((1, 2, 3, 3, 3), dtype=np.float32)
        w = np.zeros((2, 2, 2, 2, 2), dtype=np.float32)
        get_impl("gemm").forward(x, w)
        second = MetricsRegistry()
        set_metrics(second)
        get_impl("gemm").forward(x, w)
        assert first.snapshot()["primitives.conv3d.forward.calls"] == 1
        assert second.snapshot()["primitives.conv3d.forward.calls"] == 1

    def test_register_default_flag(self):
        original = registry_mod._IMPLS["gemm"]
        try:
            register_impl(original, default=True)
            assert get_default_impl() == "gemm"
        finally:
            set_default_impl("gemm")

    def test_rejects_non_convimpl(self):
        with pytest.raises(TypeError):
            register_impl("gemm")
