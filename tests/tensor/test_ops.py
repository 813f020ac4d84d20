"""Gradient and semantics tests for every op in repro.tensor.ops."""

import numpy as np
import pytest

from repro.tensor import ops
from repro.tensor.tensor import Tensor
from tests.gradcheck import check_grads
from tests.primitives.test_conv3d import reference_conv3d


def randn(rng, *shape):
    return rng.standard_normal(shape)


class TestElementwiseGradients:
    def test_add_broadcast(self):
        rng = np.random.default_rng(0)
        check_grads(
            lambda t: (t["a"] + t["b"]).sum(),
            {"a": randn(rng, 2, 3), "b": randn(rng, 3)},
        )

    def test_sub(self):
        rng = np.random.default_rng(1)
        check_grads(
            lambda t: (t["a"] - t["b"]).sum(),
            {"a": randn(rng, 4), "b": randn(rng, 4)},
        )

    def test_mul_broadcast(self):
        rng = np.random.default_rng(2)
        check_grads(
            lambda t: (t["a"] * t["b"]).sum(),
            {"a": randn(rng, 2, 3), "b": randn(rng, 2, 1)},
        )

    def test_div(self):
        rng = np.random.default_rng(3)
        check_grads(
            lambda t: (t["a"] / (t["b"] + 5.0)).sum(),
            {"a": randn(rng, 3), "b": randn(rng, 3)},
        )

    def test_neg(self):
        rng = np.random.default_rng(4)
        check_grads(lambda t: (-t["x"]).sum(), {"x": randn(rng, 3)})

    def test_power_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            ops.power(Tensor([1.0]), Tensor([2.0]))

    def test_maximum_gradient_routing(self):
        a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 2.0]), requires_grad=True)
        ops.maximum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 0.0])

    def test_maximum_tie_goes_to_first(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        ops.maximum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])
        np.testing.assert_allclose(b.grad, [0.0])

    def test_clip_values_and_grad(self):
        x = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        y = ops.clip(x, 0.0, 1.0)
        np.testing.assert_allclose(y.data, [0.0, 0.5, 1.0])
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_scalar_left_operands(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = 1.0 - x
        z = 6.0 / x
        np.testing.assert_allclose(y.data, [-1.0])
        np.testing.assert_allclose(z.data, [3.0])


class TestReductions:
    def test_sum_axis(self):
        rng = np.random.default_rng(5)
        check_grads(lambda t: t["x"].sum(axis=0).sum(), {"x": randn(rng, 3, 4)})

    def test_sum_keepdims_shape(self):
        x = Tensor(np.zeros((2, 3)))
        assert x.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean_grad_value(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, 0.25)

    def test_mean_axis(self):
        rng = np.random.default_rng(6)
        check_grads(lambda t: (t["x"].mean(axis=1) ** 2).sum(), {"x": randn(rng, 3, 4)})

    def test_negative_axis(self):
        x = Tensor(np.ones((2, 3)))
        assert x.sum(axis=-1).shape == (2,)


class TestReshapeOps:
    def test_reshape_round_trip_grad(self):
        rng = np.random.default_rng(7)
        check_grads(
            lambda t: (t["x"].reshape(6) ** 2).sum(),
            {"x": randn(rng, 2, 3)},
        )

    def test_reshape_varargs(self):
        x = Tensor(np.zeros((2, 3)))
        assert x.reshape(3, 2).shape == (3, 2)
        assert x.reshape((6,)).shape == (6,)

    def test_flatten_keeps_batch(self):
        x = Tensor(np.zeros((4, 2, 3, 5)))
        assert ops.flatten(x).shape == (4, 30)

    def test_transpose_grad(self):
        rng = np.random.default_rng(8)
        check_grads(
            lambda t: (ops.transpose(t["x"], (1, 0)) * ops.transpose(t["x"], (1, 0))).sum(),
            {"x": randn(rng, 2, 3)},
        )

    def test_transpose_default_reverses(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert ops.transpose(x).shape == (4, 3, 2)


class TestActivations:
    def test_leaky_relu_values(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]))
        y = ops.leaky_relu(x, alpha=0.1)
        np.testing.assert_allclose(y.data, [-0.1, 0.0, 2.0], rtol=1e-6)

    def test_leaky_relu_grad(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        ops.leaky_relu(x, alpha=0.25).sum().backward()
        np.testing.assert_allclose(x.grad, [0.25, 1.0])

    def test_relu_is_leaky_zero(self):
        x = Tensor(np.array([-3.0, 3.0]))
        np.testing.assert_allclose(ops.relu(x).data, [0.0, 3.0])

    def test_sigmoid_grad(self):
        rng = np.random.default_rng(9)
        check_grads(lambda t: ops.sigmoid(t["x"]).sum(), {"x": randn(rng, 5)})

    def test_tanh_grad(self):
        rng = np.random.default_rng(10)
        check_grads(lambda t: ops.tanh(t["x"]).sum(), {"x": randn(rng, 5)})

    def test_leaky_relu_finite_diff(self):
        rng = np.random.default_rng(11)
        # keep values away from the kink for finite differences
        x = randn(rng, 6)
        x[np.abs(x) < 0.1] = 0.5
        check_grads(lambda t: (ops.leaky_relu(t["x"]) ** 2).sum(), {"x": x})

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
            y = ops.leaky_relu(x, alpha=alpha)
            y.backward(g)
        assert y.data.dtype == dtype and x.grad.dtype == dtype
        assert y.data.tobytes() == want_out.tobytes()
        assert x.grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.2])
    def test_leaky_relu_accepts_0d(self, alpha):
        x = Tensor(np.array(-2.0, dtype=np.float32), requires_grad=True)
        y = ops.leaky_relu(x, alpha=alpha)
        y.backward(np.array(1.0, dtype=np.float32))
        assert y.shape == () and y.dtype == np.float32
        assert float(y.data) == np.float32(-2.0) * np.float32(alpha)
        assert float(x.grad) == np.float32(alpha)


class TestDense:
    def test_matmul_grad(self):
        rng = np.random.default_rng(12)
        check_grads(
            lambda t: (t["a"] @ t["b"]).sum(),
            {"a": randn(rng, 3, 4), "b": randn(rng, 4, 2)},
        )

    def test_matmul_rejects_1d(self):
        with pytest.raises(ValueError):
            ops.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))

    def test_linear_grad_with_bias(self):
        rng = np.random.default_rng(13)
        check_grads(
            lambda t: (ops.linear(t["x"], t["w"], t["b"]) ** 2).sum(),
            {"x": randn(rng, 2, 3), "w": randn(rng, 3, 4), "b": randn(rng, 4)},
        )

    def test_linear_no_bias(self):
        rng = np.random.default_rng(14)
        check_grads(
            lambda t: ops.linear(t["x"], t["w"]).sum(),
            {"x": randn(rng, 2, 3), "w": randn(rng, 3, 4)},
        )

    def test_linear_shape_checks(self):
        with pytest.raises(ValueError):
            ops.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        with pytest.raises(ValueError):
            ops.linear(
                Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(3))
            )


class TestConvPoolOps:
    def test_conv3d_grad_all_inputs(self):
        rng = np.random.default_rng(15)
        check_grads(
            lambda t: (ops.conv3d(t["x"], t["w"], t["b"]) ** 2).sum(),
            {
                "x": randn(rng, 1, 2, 4, 4, 4),
                "w": randn(rng, 2, 2, 3, 3, 3),
                "b": randn(rng, 2),
            },
            rtol=5e-4,
            atol=5e-5,
        )

    def test_conv3d_no_bias_grad(self):
        rng = np.random.default_rng(16)
        check_grads(
            lambda t: ops.conv3d(t["x"], t["w"], stride=2).sum(),
            {"x": randn(rng, 1, 1, 5, 5, 5), "w": randn(rng, 2, 1, 2, 2, 2)},
        )

    def test_conv3d_impl_selected_by_name_matches_reference(self):
        rng = np.random.default_rng(17)
        x = Tensor(randn(rng, 1, 16, 5, 5, 5).astype(np.float32))
        w = Tensor(randn(rng, 16, 16, 3, 3, 3).astype(np.float32))
        a = ops.conv3d(x, w, impl="gemm")
        np.testing.assert_allclose(a.data, reference_conv3d(x.data, w.data), rtol=2e-4, atol=2e-4)

    def test_avg_pool3d_grad(self):
        rng = np.random.default_rng(18)
        check_grads(
            lambda t: (ops.avg_pool3d(t["x"], 2) ** 2).sum(),
            {"x": randn(rng, 1, 2, 5, 5, 5)},
        )

    def test_conv_then_pool_pipeline_grad(self):
        rng = np.random.default_rng(19)
        check_grads(
            lambda t: ops.avg_pool3d(ops.leaky_relu(ops.conv3d(t["x"], t["w"])), 2).sum(),
            {"x": randn(rng, 1, 1, 6, 6, 6), "w": randn(rng, 2, 1, 3, 3, 3)},
            rtol=5e-4,
            atol=5e-5,
        )


class TestLosses:
    def test_mse_value(self):
        p = Tensor(np.array([1.0, 2.0]))
        t = Tensor(np.array([0.0, 0.0]))
        assert ops.mse_loss(p, t).item() == pytest.approx(2.5)

    def test_mse_grad(self):
        rng = np.random.default_rng(20)
        check_grads(
            lambda t: ops.mse_loss(t["p"], t["t"]),
            {"p": randn(rng, 3, 2), "t": randn(rng, 3, 2)},
        )

    def test_mae_value(self):
        p = Tensor(np.array([1.0, -2.0]))
        t = Tensor(np.array([0.0, 0.0]))
        assert ops.mae_loss(p, t).item() == pytest.approx(1.5)

    def test_mae_grad_away_from_zero(self):
        rng = np.random.default_rng(21)
        p = randn(rng, 4) + 3.0
        t = np.zeros(4)
        check_grads(lambda d: ops.mae_loss(d["p"], d["t"]), {"p": p, "t": t})

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ops.mse_loss(Tensor(np.zeros(2)), Tensor(np.zeros(3)))
