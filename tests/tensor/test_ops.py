"""The layers through the tape adapter, and the loss.

Each layer's ``forward``/``backward`` pair is checked against finite
differences on plain arrays (``check_layer_grads``); the leaky ReLU's
bits and corner cases are checked through ``layer(Tensor)``, the path
the benchmark's hand-driven step runs.
"""

import numpy as np
import pytest

from repro.tensor import ops
from repro.tensor.layers import AvgPool3D, Conv3D, Dense, Flatten, LeakyReLU, Sequential
from repro.tensor.tensor import Tensor
from tests.core.test_chain import float64
from tests.gradcheck import check_layer_grads, numerical_grad


def randn(rng, *shape):
    return rng.standard_normal(shape)


class TestActivations:
    def test_leaky_relu_values(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]))
        y = LeakyReLU(0.1)(x)
        np.testing.assert_allclose(y.data, [-0.1, 0.0, 2.0], rtol=1e-6)

    def test_leaky_relu_grad(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        LeakyReLU(0.25)(x).backward(np.ones(2))
        np.testing.assert_allclose(x.grad, [0.25, 1.0])

    def test_relu_is_leaky_zero(self):
        x = Tensor(np.array([-3.0, 3.0]))
        np.testing.assert_allclose(LeakyReLU(0.0)(x).data, [0.0, 3.0])

    def test_leaky_relu_finite_diff(self):
        rng = np.random.default_rng(11)
        # keep values away from the kink for finite differences
        x = randn(rng, 6)
        x[np.abs(x) < 0.1] = 0.5
        check_layer_grads(LeakyReLU(), x)

    # alpha 0.2 and 1 take the np.maximum path; 0, -0.5 and 1.5 the masked
    # multiply it must equal (0 because 0*inf is NaN, the others because
    # alpha*x is then on the wrong side of x).
    @pytest.mark.parametrize("alpha", [0.0, 0.2, 1.0, -0.5, 1.5])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_leaky_relu_bitwise_equals_masked_multiply(self, alpha, dtype):
        rng = np.random.default_rng(12)
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-7, -1e-7, 65504.0, -65504.0]
        data = np.concatenate([special, rng.standard_normal(119) * 3]).astype(dtype)
        g = rng.standard_normal(data.shape).astype(dtype)
        g[:4] = [0.0, -0.0, np.nan, np.inf]
        with np.errstate(invalid="ignore", over="ignore"):
            scale = np.where(data > 0, np.array(1.0, dtype=dtype), np.array(alpha, dtype=dtype))
            want_out, want_grad = data * scale, g * scale
            x = Tensor(data, requires_grad=True)
            y = LeakyReLU(alpha)(x)
            y.backward(g)
        assert y.data.dtype == dtype and x.grad.dtype == dtype
        assert y.data.tobytes() == want_out.tobytes()
        assert x.grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.2])
    def test_leaky_relu_accepts_0d(self, alpha):
        x = Tensor(np.array(-2.0, dtype=np.float32), requires_grad=True)
        y = LeakyReLU(alpha)(x)
        y.backward(np.array(1.0, dtype=np.float32))
        assert y.shape == () and y.dtype == np.float32
        assert float(y.data) == np.float32(-2.0) * np.float32(alpha)
        assert float(x.grad) == np.float32(alpha)


class TestReshapeOps:
    def test_flatten_keeps_batch(self):
        x = Tensor(np.zeros((4, 2, 3, 5)))
        assert Flatten()(x).shape == (4, 30)


class TestDense:
    def test_linear_grad_with_bias(self):
        rng = np.random.default_rng(13)
        check_layer_grads(float64(Dense(3, 4, rng=rng)), randn(rng, 2, 3))

    def test_linear_no_bias(self):
        rng = np.random.default_rng(14)
        check_layer_grads(float64(Dense(3, 4, bias=False, rng=rng)), randn(rng, 2, 3))


class TestConvPoolOps:
    def test_conv3d_grad_all_inputs(self):
        rng = np.random.default_rng(15)
        check_layer_grads(
            float64(Conv3D(2, 2, 3, rng=rng)), randn(rng, 1, 2, 4, 4, 4), rtol=5e-4, atol=5e-5
        )

    def test_conv3d_no_bias_grad(self):
        rng = np.random.default_rng(16)
        check_layer_grads(
            float64(Conv3D(1, 2, 2, stride=2, bias=False, rng=rng)), randn(rng, 1, 1, 5, 5, 5)
        )

    def test_avg_pool3d_grad(self):
        rng = np.random.default_rng(18)
        check_layer_grads(AvgPool3D(2), randn(rng, 1, 2, 5, 5, 5))

    def test_conv_then_pool_pipeline_grad(self):
        rng = np.random.default_rng(19)
        net = Sequential([Conv3D(1, 2, 3, bias=False, rng=rng), LeakyReLU(), AvgPool3D(2)])
        check_layer_grads(float64(net), randn(rng, 1, 1, 6, 6, 6), rtol=5e-4, atol=5e-5)


class TestLosses:
    def test_mse_value(self):
        p = Tensor(np.array([1.0, 2.0]))
        t = Tensor(np.array([0.0, 0.0]))
        assert ops.mse_loss(p, t).item() == pytest.approx(2.5)

    def test_mse_grad(self):
        rng = np.random.default_rng(20)
        p, t = randn(rng, 3, 2), randn(rng, 3, 2)
        pt, tt = Tensor(p.copy(), requires_grad=True), Tensor(t.copy(), requires_grad=True)
        ops.mse_loss(pt, tt).backward()
        for got, array in ((pt.grad, p), (tt.grad, t)):
            want = numerical_grad(lambda: ops.mse_loss(Tensor(p), Tensor(t)).item(), array)
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ops.mse_loss(Tensor(np.zeros(2)), Tensor(np.zeros(3)))
