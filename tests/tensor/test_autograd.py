"""Tests for the autograd core (repro.tensor.tensor)."""

import numpy as np
import pytest

from repro.tensor import ops
from repro.tensor.tensor import Parameter, Tensor, no_grad, unbroadcast
from tests.gradcheck import check_grads


class TestTensorBasics:
    def test_int_input_becomes_float32(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32

    def test_float64_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    @pytest.mark.parametrize(
        "dtype", [np.float16, np.float32, np.float64, np.int8, np.uint16, np.int64, np.bool_]
    )
    def test_only_floating_dtypes_are_kept(self, dtype):
        data = np.ones(3, dtype=dtype)
        t = Tensor(data)
        if np.issubdtype(dtype, np.floating):
            assert t.data is data
        else:
            assert t.dtype == np.float32

    def test_tensor_of_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert b.data is a.data

    def test_shape_size_ndim(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3) and t.size == 6 and t.ndim == 2

    def test_item(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_detach_cuts_tape(self):
        a = Tensor([1.0], requires_grad=True)
        b = (a * 2.0).detach()
        assert not b.requires_grad
        assert b._backward is None

    def test_parameter_requires_grad(self):
        p = Parameter(np.zeros(3), name="w")
        assert p.requires_grad and p.name == "w"
        assert "w" in repr(p)


class TestBackwardMechanics:
    def test_simple_chain(self):
        x = Tensor(2.0, requires_grad=True)
        y = (x * 3.0 + 1.0) * (x * 3.0 + 1.0)  # (3x+1)^2, dy/dx = 6(3x+1) = 42
        y.backward()
        assert x.grad == pytest.approx(42.0)

    def test_fan_out_accumulates(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 7
        y.backward()
        assert x.grad == pytest.approx(7.0)

    def test_diamond_graph(self):
        x = Tensor(2.0, requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        y = a * b  # y = 6x^2, dy/dx = 24
        y.backward()
        assert x.grad == pytest.approx(24.0)

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(1.0, requires_grad=True)
        (x * 2.0).backward()
        (x * 2.0).backward()
        assert x.grad == pytest.approx(4.0)

    def test_repeated_backward_same_graph_no_double_count_of_interior(self):
        x = Tensor(1.0, requires_grad=True)
        y = x * 5.0
        y.backward()
        y.backward()
        assert x.grad == pytest.approx(10.0)

    def test_zero_grad(self):
        x = Tensor(1.0, requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_nonscalar_needs_explicit_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(RuntimeError):
            y.backward()
        y.backward(np.array([1.0, 1.0], dtype=np.float32))
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_wrong_grad_shape_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward(np.ones(3, dtype=np.float32))

    def test_backward_on_nograd_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(1.0).backward()

    def test_no_requires_grad_means_no_tape(self):
        a = Tensor([1.0])
        b = a * 2.0
        assert not b.requires_grad and b._backward is None

    def test_no_grad_context(self):
        x = Tensor(1.0, requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_nesting_restores(self):
        x = Tensor(1.0, requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            y = x * 2.0
            assert not y.requires_grad
        z = x * 2.0
        assert z.requires_grad

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.backward()
        assert x.grad == pytest.approx(1.0)

    def test_grad_stops_at_nongrad_branch(self):
        x = Tensor(2.0, requires_grad=True)
        c = Tensor(3.0)  # constant
        y = x * c
        y.backward()
        assert x.grad == pytest.approx(3.0)
        assert c.grad is None


class TestUnbroadcast:
    def test_no_op_when_same_shape(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sums_added_leading_axes(self):
        g = np.ones((4, 2, 3))
        np.testing.assert_allclose(unbroadcast(g, (2, 3)), np.full((2, 3), 4.0))

    def test_sums_stretched_axes(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(unbroadcast(g, (2, 1)), np.full((2, 1), 3.0))

    def test_scalar_target(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(unbroadcast(g, ()), 6.0)

    def test_combined(self):
        g = np.ones((5, 2, 3))
        np.testing.assert_allclose(unbroadcast(g, (1, 3)), np.full((1, 3), 10.0))


class TestCompositeGradients:
    """End-to-end finite-difference checks through composite expressions."""

    def test_polynomial(self):
        rng = np.random.default_rng(0)
        check_grads(
            lambda t: ((t["x"] * t["x"] + t["x"] * 3.0) * 0.5).sum(),
            {"x": rng.standard_normal((3, 4))},
        )

    def test_rational(self):
        rng = np.random.default_rng(1)
        check_grads(
            lambda t: (t["a"] / (t["b"] * t["b"] + 1.0)).sum(),
            {"a": rng.standard_normal((4,)), "b": rng.standard_normal((4,))},
        )

    def test_broadcast_expression(self):
        rng = np.random.default_rng(2)
        check_grads(
            lambda t: (t["m"] * t["v"]).sum(),
            {"m": rng.standard_normal((3, 4)), "v": rng.standard_normal((4,))},
        )

    def test_mean_and_power(self):
        rng = np.random.default_rng(3)
        check_grads(
            lambda t: (t["x"] ** 3).mean(),
            {"x": rng.standard_normal((5,)) + 2.0},
        )

    def test_exp_log_chain(self):
        rng = np.random.default_rng(4)
        check_grads(
            lambda t: ops.log(ops.exp(t["x"]) + 1.0).sum(),
            {"x": rng.standard_normal((6,))},
        )
