"""Tests for the conv implementation registry."""

import numpy as np
import pytest

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


@pytest.fixture(autouse=True)
def restore_default():
    yield
    set_default_impl("gemm")
    set_metrics(None)


class TestRegistry:
    def test_all_registered(self):
        assert available_impls() == [
            "auto", "blocked", "direct", "gemm", "int4", "int8",
        ]

    def test_default_is_gemm(self):
        assert get_impl().name == "gemm"
        assert get_default_impl() == "gemm"

    def test_lookup_by_name(self):
        assert get_impl("direct").name == "direct"

    def test_set_default(self):
        set_default_impl("direct")
        assert get_impl().name == "direct"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_impl("cudnn")
        with pytest.raises(KeyError):
            set_default_impl("cudnn")

    def test_impls_agree_end_to_end(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 16, 6, 6, 6)).astype(np.float32)
        w = rng.standard_normal((16, 16, 3, 3, 3)).astype(np.float32)
        g = rng.standard_normal((1, 16, 4, 4, 4)).astype(np.float32)
        a, b = get_impl("gemm"), get_impl("direct")
        np.testing.assert_allclose(a.forward(x, w), b.forward(x, w), rtol=2e-4, atol=2e-4)
        np.testing.assert_allclose(
            a.backward_data(g, w, (6, 6, 6)),
            b.backward_data(g, w, (6, 6, 6)),
            rtol=2e-4,
            atol=2e-4,
        )
        np.testing.assert_allclose(
            a.backward_weights(x, g, (3, 3, 3)),
            b.backward_weights(x, g, (3, 3, 3)),
            rtol=2e-4,
            atol=2e-4,
        )

    def test_pack_survives_instrumentation(self):
        """Only ``gemm`` offers ``pack``; the counting wrappers must hand
        the packed operand through and count the calls as before."""
        assert get_impl("direct").pack is None and get_impl("auto").pack is None
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

    def test_direct_padding_fallback(self):
        """The direct wrappers fall back to GEMM kernels when padding != 0."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 4, 5, 5, 5)).astype(np.float32)
        w = rng.standard_normal((4, 4, 3, 3, 3)).astype(np.float32)
        g = rng.standard_normal((1, 4, 5, 5, 5)).astype(np.float32)
        d, r = get_impl("direct"), get_impl("gemm")
        np.testing.assert_allclose(
            d.backward_data(g, w, (5, 5, 5), 1, 1),
            r.backward_data(g, w, (5, 5, 5), 1, 1),
            rtol=2e-4,
            atol=2e-4,
        )
        np.testing.assert_allclose(
            d.backward_weights(x, g, (3, 3, 3), 1, 1),
            r.backward_weights(x, g, (3, 3, 3), 1, 1),
            rtol=2e-4,
            atol=2e-4,
        )

    def test_padding_fallbacks_are_counted(self):
        """Satellite a: direct->gemm substitutions land on the metrics."""
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 4, 5, 5, 5)).astype(np.float32)
        w = rng.standard_normal((4, 4, 3, 3, 3)).astype(np.float32)
        g = rng.standard_normal((1, 4, 5, 5, 5)).astype(np.float32)
        metrics = MetricsRegistry()
        set_metrics(metrics)
        d = get_impl("direct")
        d.backward_data(g, w, (5, 5, 5), 1, 1)
        d.backward_weights(x, g, (3, 3, 3), 1, 1)
        g0 = rng.standard_normal((1, 4, 3, 3, 3)).astype(np.float32)
        d.backward_data(g0, w, (5, 5, 5), 1, 0)  # unpadded: no fallback
        snap = metrics.snapshot()
        assert snap["primitives.conv3d.fallbacks"] == 2
        assert snap["primitives.conv3d.direct.backward_data.fallbacks"] == 1
        assert snap["primitives.conv3d.direct.backward_weights.fallbacks"] == 1

    def test_blocked_native_layout(self):
        assert get_impl("blocked").native_layout == "nCdhw16c"
        assert get_impl("gemm").native_layout == "ncdhw"


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

    def test_rejects_auto_name(self):
        with pytest.raises(ValueError):
            register_impl(ConvImpl(
                name="auto",
                forward=lambda *a, **k: None,
                backward_data=lambda *a, **k: None,
                backward_weights=lambda *a, **k: None,
            ))

    def test_auto_is_never_instrumented(self):
        """get_impl("auto") must hand back the raw policy: accounting
        happens on the *chosen* impl, wrapping auto would double-count."""
        set_metrics(MetricsRegistry())
        assert get_impl("auto") is registry_mod._AUTO
