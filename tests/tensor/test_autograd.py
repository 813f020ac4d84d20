"""Tests for the autograd core (repro.tensor.tensor).

The tape records a node per layer call and one for ``mse_loss``; these
check its walk over such graphs: fan-out into a shared parameter, a
diamond, repeated ``backward`` calls, ``no_grad``, a deep chain.
"""

import numpy as np
import pytest

from repro.tensor.layers import Dense, LeakyReLU
from repro.tensor.ops import mse_loss
from repro.tensor.tensor import Parameter, Tensor, no_grad


def scale(w, bias=None):
    """A 1 -> 1 ``Dense`` layer: ``x * w (+ bias)``."""
    layer = Dense(1, 1, bias=bias is not None, rng=0)
    layer.weight.data[...] = w
    if bias is not None:
        layer.bias.data[...] = bias
    return layer


def scalar(value, requires_grad=False):
    return Tensor(np.full((1, 1), value, dtype=np.float32), requires_grad=requires_grad)


def squared(t):
    """``t**2`` for a ``(1, 1)`` tensor, on the tape."""
    return mse_loss(t, np.zeros((1, 1), dtype=np.float32))


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
        b = LeakyReLU()(a).detach()
        assert not b.requires_grad
        assert b._backward is None

    def test_parameter_requires_grad(self):
        p = Parameter(np.zeros(3), name="w")
        assert p.requires_grad and p.name == "w"
        assert "w" in repr(p)


class TestBackwardMechanics:
    def test_simple_chain(self):
        x = scalar(2.0, requires_grad=True)
        y = squared(scale(3.0, bias=1.0)(x))  # (3x+1)^2, dy/dx = 6(3x+1) = 42
        y.backward()
        assert x.grad.item() == pytest.approx(42.0)

    def test_fan_out_accumulates(self):
        """One parameter feeds two nodes: its gradient is the sum of both."""
        x = scalar(1.0, requires_grad=True)
        layer = scale(3.0)
        y = squared(layer(layer(x)))  # (w^2 x)^2: d/dw = 4 w^3 x^2, d/dx = 2 w^4 x
        y.backward()
        assert layer.weight.grad.item() == pytest.approx(108.0)
        assert x.grad.item() == pytest.approx(162.0)

    def test_diamond_graph(self):
        x = scalar(2.0, requires_grad=True)
        a, b = scale(2.0), scale(3.0)
        y = mse_loss(a(x), b(x))  # (2x - 3x)^2 = x^2
        y.backward()
        assert x.grad.item() == pytest.approx(4.0)
        assert a.weight.grad.item() == pytest.approx(-8.0)  # 2(2x - 3x) x
        assert b.weight.grad.item() == pytest.approx(8.0)

    def test_grad_accumulates_across_backward_calls(self):
        x = scalar(1.0, requires_grad=True)
        layer = scale(2.0)
        squared(layer(x)).backward()
        squared(layer(x)).backward()
        assert x.grad.item() == pytest.approx(16.0)

    def test_repeated_backward_same_graph_no_double_count_of_interior(self):
        x = scalar(1.0, requires_grad=True)
        y = squared(scale(2.0)(scale(5.0)(x)))  # (10x)^2, d/dx = 200x
        y.backward()
        y.backward()
        assert x.grad.item() == pytest.approx(400.0)

    def test_zero_grad(self):
        x = scalar(1.0, requires_grad=True)
        squared(x).backward()
        x.zero_grad()
        assert x.grad is None

    def test_nonscalar_needs_explicit_grad(self):
        x = Tensor(np.array([[1.0], [2.0]], dtype=np.float32), requires_grad=True)
        y = scale(2.0)(x)
        with pytest.raises(RuntimeError):
            y.backward()
        y.backward(np.ones((2, 1), dtype=np.float32))
        np.testing.assert_allclose(x.grad, [[2.0], [2.0]])

    def test_wrong_grad_shape_raises(self):
        x = Tensor(np.array([[1.0], [2.0]], dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError):
            scale(2.0)(x).backward(np.ones(3, dtype=np.float32))

    def test_backward_on_nograd_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(1.0).backward()

    def test_no_requires_grad_means_no_tape(self):
        """A layer with no parameters on a tensor that needs no gradient
        records nothing."""
        b = LeakyReLU()(Tensor([1.0]))
        assert not b.requires_grad and b._backward is None

    def test_no_grad_context(self):
        x = scalar(1.0, requires_grad=True)
        with no_grad():
            y = scale(2.0)(x)
        assert not y.requires_grad

    def test_no_grad_nesting_restores(self):
        x = scalar(1.0, requires_grad=True)
        layer = scale(2.0)
        with no_grad():
            with no_grad():
                pass
            y = layer(x)
            assert not y.requires_grad
        z = layer(x)
        assert z.requires_grad

    def test_deep_chain_no_recursion_error(self):
        x = scalar(1.0, requires_grad=True)
        y = x
        identity = LeakyReLU()  # on a positive input
        for _ in range(3000):
            y = identity(y)
        squared(y).backward()
        assert x.grad.item() == pytest.approx(2.0)

    def test_grad_stops_at_nongrad_branch(self):
        x = scalar(2.0, requires_grad=True)
        c = scalar(3.0)  # constant
        y = mse_loss(scale(1.0)(x), c)  # (x - c)^2
        y.backward()
        assert x.grad.item() == pytest.approx(-2.0)
        assert c.grad is None
