"""Tests for the kernel lookup and its metrics accounting."""

import re

import numpy as np
import pytest

from repro import primitives
from repro.obs import MetricsRegistry
from repro.primitives import registry
from repro.primitives.registry import GEMM, ConvImpl, get_impl, set_metrics
from repro.tensor.tensor import Tensor


@pytest.fixture(autouse=True)
def detach_metrics():
    yield
    set_metrics(None)


class TestRegistry:
    def test_default_is_gemm(self):
        assert get_impl() is GEMM and GEMM.name == "gemm"

    def test_pack_survives_instrumentation(self):
        """The counting wrappers must hand the packed operand through and
        count the calls as before."""
        metrics = MetricsRegistry()
        set_metrics(metrics)
        k = get_impl()
        assert k is not GEMM and k.pack is GEMM.pack
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


class TestOneFamily:
    """``direct``, ``blocked``, the layout tag and the autotuner lost every
    cell of the race (docs/architecture.md, "One kernel family") and left
    ``src/`` in PR 18, the quantized families and the name table later;
    these fail if the fork comes back."""

    @pytest.mark.parametrize("name", ["direct", "blocked", "auto"])
    def test_removed_families_are_unknown(self, name):
        with pytest.raises(TypeError):
            get_impl(name)  # no family is picked by name

    def test_tensor_carries_no_layout_tag(self):
        assert {"layout", "channels"}.isdisjoint(Tensor.__slots__)

    def test_package_exports_no_layout_or_tuner_names(self):
        pattern = re.compile("blocked|direct|layout|reorder|tun", re.IGNORECASE)
        assert [n for n in primitives.__all__ if pattern.search(n)] == []


class TestRegisterImpl:
    def test_replace_invalidates_instrumented_wrappers(self, monkeypatch):
        """A family patched in must not be shadowed by a stale instrumented
        wrapper around its predecessor."""
        metrics = MetricsRegistry()
        set_metrics(metrics)
        x = np.zeros((1, 2, 3, 3, 3), dtype=np.float32)
        w = np.zeros((2, 2, 2, 2, 2), dtype=np.float32)
        get_impl().forward(x, w)  # builds + caches the wrapper
        calls = []

        def spy_forward(xx, ww, bias=None, stride=1, padding=0, packed=None):
            calls.append("hit")
            return GEMM.forward(xx, ww, bias, stride=stride, padding=padding, packed=packed)

        monkeypatch.setattr(registry, "GEMM", ConvImpl(
            name="gemm",
            forward=spy_forward,
            backward_data=GEMM.backward_data,
            backward_weights=GEMM.backward_weights,
            pack=GEMM.pack,
            backward=GEMM.backward,
        ))
        get_impl().forward(x, w)
        assert calls == ["hit"]  # wrapper was rebuilt over the new family
        assert metrics.snapshot()["primitives.conv3d.forward.calls"] == 2

    def test_set_metrics_invalidates_instrumented_wrappers(self):
        """Counters must land on the currently attached registry, never a
        previously attached one."""
        first = MetricsRegistry()
        set_metrics(first)
        x = np.zeros((1, 2, 3, 3, 3), dtype=np.float32)
        w = np.zeros((2, 2, 2, 2, 2), dtype=np.float32)
        get_impl().forward(x, w)
        second = MetricsRegistry()
        set_metrics(second)
        get_impl().forward(x, w)
        assert first.snapshot()["primitives.conv3d.forward.calls"] == 1
        assert second.snapshot()["primitives.conv3d.forward.calls"] == 1
