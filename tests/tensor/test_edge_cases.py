"""Edge-case and property tests for the tensor framework."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import ops
from repro.tensor.layers import AvgPool3D, Conv3D, Dense, Flatten, LeakyReLU
from repro.tensor.tensor import Tensor, no_grad


class TestDtypePolicy:
    def test_ops_preserve_float32(self):
        a = Tensor(np.ones((2, 1, 4, 4, 4), dtype=np.float32), requires_grad=True)
        conv = Conv3D(1, 2, 3, rng=0)
        flat = Flatten()(AvgPool3D(2)(LeakyReLU()(conv(a))))
        dense = Dense(2, 3, rng=1)(flat)
        loss = ops.mse_loss(dense, np.zeros((2, 3), dtype=np.float32))
        for expr in (conv(a), flat, dense, loss):
            assert expr.dtype == np.float32, expr.op_name

    def test_mixed_precision_promotes(self):
        layer = Dense(3, 2, rng=0)  # float32 weights
        assert layer(Tensor(np.ones((1, 3), dtype=np.float64))).dtype == np.float64

    def test_bool_input_coerced(self):
        t = Tensor(np.array([True, False]))
        assert t.dtype == np.float32


class TestNoGradInteractions:
    def test_mixed_graph_segments(self):
        x = Tensor(np.full((1, 1), 2.0, dtype=np.float32), requires_grad=True)
        layer = Dense(1, 1, bias=False, rng=0)
        layer.weight.data[...] = 3.0
        with no_grad():
            frozen = layer(x)  # constant from here on: 3x = 6
        y = ops.mse_loss(x, frozen)  # (x - 6)^2, d/dx = 2(x - 6) = -8
        y.backward()
        assert x.grad.item() == pytest.approx(-8.0)
        assert layer.weight.grad is None

    def test_detach_mid_graph(self):
        x = Tensor(np.full((1, 1), 2.0, dtype=np.float32), requires_grad=True)
        layer = Dense(1, 1, bias=False, rng=0)
        layer.weight.data[...] = 3.0
        y = ops.mse_loss(x, layer(x).detach())  # as above
        y.backward()
        assert x.grad.item() == pytest.approx(-8.0)
        assert layer.weight.grad is None


class TestPropertyGradients:
    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_leaky_relu_idempotent_on_positive(self, seed):
        rng = np.random.default_rng(seed)
        x = np.abs(rng.standard_normal(8)) + 0.1
        out = LeakyReLU()(Tensor(x)).data
        np.testing.assert_allclose(out, x, rtol=1e-7)

    @given(
        alpha=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=20, deadline=None)
    def test_leaky_relu_bounds(self, alpha, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(16)
        out = LeakyReLU(alpha)(Tensor(x)).data
        assert np.all(out <= np.maximum(x, alpha * x) + 1e-7)
        assert np.all(out >= np.minimum(x, alpha * x) - 1e-7)

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_mse_nonnegative_and_zero_iff_equal(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 2))
        assert ops.mse_loss(Tensor(a), Tensor(a.copy())).item() == pytest.approx(0.0)
        b = a + rng.standard_normal((3, 2)) * 0.1 + 0.05
        assert ops.mse_loss(Tensor(a), Tensor(b)).item() > 0.0


def conv3d(x, w):
    """``w`` convolved over ``x`` by a bias-free ``Conv3D`` layer."""
    layer = Conv3D(w.shape[1], w.shape[0], w.shape[2:], bias=False, rng=0)
    layer.weight.data[...] = w
    return layer(Tensor(x))


class TestConvOpEdges:
    def test_kernel_equal_to_input(self):
        """A kernel the size of the input produces a 1x1x1 output — the
        'backward weights is a big-kernel conv' regime."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 2, 4, 4, 4)).astype(np.float32)
        w = rng.standard_normal((3, 2, 4, 4, 4)).astype(np.float32)
        out = conv3d(x, w)
        assert out.shape == (1, 3, 1, 1, 1)
        want = np.tensordot(w, x[0], axes=([1, 2, 3, 4], [0, 1, 2, 3]))
        np.testing.assert_allclose(out.data[0, :, 0, 0, 0], want, rtol=1e-4)

    def test_1x1x1_kernel_is_channel_mix(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 3, 2, 2, 2)).astype(np.float32)
        w = rng.standard_normal((4, 3, 1, 1, 1)).astype(np.float32)
        out = conv3d(x, w).data
        want = np.einsum("oc,ncdhw->nodhw", w[:, :, 0, 0, 0], x)
        np.testing.assert_allclose(out, want, rtol=1e-5, atol=1e-6)

    def test_batch_independence(self):
        """conv(concat(a, b)) == concat(conv(a), conv(b))."""
        rng = np.random.default_rng(2)
        a = rng.standard_normal((1, 2, 4, 4, 4)).astype(np.float32)
        b = rng.standard_normal((1, 2, 4, 4, 4)).astype(np.float32)
        w = rng.standard_normal((2, 2, 3, 3, 3)).astype(np.float32)
        both = conv3d(np.concatenate([a, b]), w).data
        np.testing.assert_allclose(both[0], conv3d(a, w).data[0], rtol=1e-5)
        np.testing.assert_allclose(both[1], conv3d(b, w).data[0], rtol=1e-5)
