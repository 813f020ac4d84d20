"""Tests for layers and initializers."""

import numpy as np
import pytest

from repro.tensor import initializers
from repro.tensor.layers import (
    AvgPool3D,
    Conv3D,
    Dense,
    Flatten,
    LeakyReLU,
    Sequential,
)
from repro.tensor.tensor import Tensor


class TestInitializers:
    def test_he_normal_std(self):
        w = initializers.he_normal((256, 1024), rng=np.random.default_rng(0))
        expect = np.sqrt(2.0 / 256)  # dense fan-in is the input dimension
        assert w.std() == pytest.approx(expect, rel=0.1)

    def test_he_normal_conv_fan_in(self):
        assert initializers.conv3d_fan_in((16, 8, 3, 3, 3)) == 8 * 27

    def test_he_leaky_alpha_reduces_std(self):
        rng = np.random.default_rng(1)
        a = initializers.he_normal((64, 512), rng=np.random.default_rng(1)).std()
        b = initializers.he_normal((64, 512), rng=rng, leaky_alpha=1.0).std()
        assert b < a

    def test_zeros(self):
        assert np.all(initializers.zeros((3, 3)) == 0.0)

    def test_dtype_float32(self):
        assert initializers.he_normal((4, 4), rng=np.random.default_rng(0)).dtype == np.float32

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            initializers.he_normal((3, 3, 3), rng=np.random.default_rng(0))


class TestConv3DLayer:
    def test_forward_shape(self):
        layer = Conv3D(2, 16, 3, rng=np.random.default_rng(0))
        out = layer(np.zeros((1, 2, 6, 6, 6), dtype=np.float32))
        assert out.shape == (1, 16, 4, 4, 4)

    def test_output_shape_helper(self):
        layer = Conv3D(1, 16, 3, rng=np.random.default_rng(0))
        assert layer.output_shape((1, 128, 128, 128)) == (16, 126, 126, 126)

    def test_output_shape_channel_check(self):
        layer = Conv3D(4, 8, 3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer.output_shape((3, 8, 8, 8))

    def test_parameters(self):
        layer = Conv3D(2, 4, 3, rng=np.random.default_rng(0))
        params = layer.parameters()
        assert len(params) == 2
        assert layer.num_parameters() == 4 * 2 * 27 + 4

    def test_no_bias(self):
        layer = Conv3D(2, 4, 3, bias=False, rng=np.random.default_rng(0))
        assert len(layer.parameters()) == 1

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            Conv3D(0, 4, 3)

    def test_grad_reaches_weights(self):
        layer = Conv3D(1, 2, 2, rng=np.random.default_rng(0))
        out = layer(np.ones((1, 1, 3, 3, 3), dtype=np.float32))
        out.backward(np.ones_like(out.data))
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestOtherLayers:
    def test_avgpool_shape(self):
        layer = AvgPool3D(2)
        out = layer(np.zeros((1, 3, 6, 6, 6), dtype=np.float32))
        assert out.shape == (1, 3, 3, 3, 3)
        assert layer.output_shape((3, 27, 27, 27)) == (3, 13, 13, 13)

    def test_dense_shape_and_params(self):
        layer = Dense(8, 4, rng=np.random.default_rng(0))
        out = layer(np.zeros((2, 8), dtype=np.float32))
        assert out.shape == (2, 4)
        assert layer.num_parameters() == 8 * 4 + 4
        assert layer.output_shape((8,)) == (4,)

    def test_dense_input_check(self):
        layer = Dense(8, 4, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer.output_shape((7,))

    def test_flatten(self):
        layer = Flatten()
        out = layer(np.zeros((2, 3, 4, 5), dtype=np.float32))
        assert out.shape == (2, 60)
        assert layer.output_shape((3, 4, 5)) == (60,)

    def test_leaky_relu_layer(self):
        layer = LeakyReLU(alpha=0.5)
        out = layer(np.array([[-2.0, 2.0]], dtype=np.float32))
        np.testing.assert_allclose(out.data, [[-1.0, 2.0]])
        assert layer.output_shape((4,)) == (4,)
        assert layer.num_parameters() == 0


class TestSequential:
    def build(self):
        rng = np.random.default_rng(0)
        return Sequential(
            [
                Conv3D(1, 16, 3, rng=rng, name="conv1"),
                LeakyReLU(),
                AvgPool3D(2),
                Flatten(),
                Dense(16 * 3 * 3 * 3, 4, rng=rng, name="fc1"),
            ]
        )

    def test_forward_shape(self):
        net = self.build()
        out = net(np.zeros((2, 1, 8, 8, 8), dtype=np.float32))
        assert out.shape == (2, 4)

    def test_output_shape_propagation(self):
        net = self.build()
        assert net.output_shape((1, 8, 8, 8)) == (4,)

    def test_parameters_collected(self):
        net = self.build()
        # conv w+b, dense w+b
        assert len(net.parameters()) == 4

    def test_parameter_list_is_gathered_once_and_handed_out_fresh(self):
        net = self.build()
        first, again = net.parameters(), net.parameters()
        conv, dense = net.layers[0], net.layers[-1]
        assert [id(p) for p in first] == [
            id(p) for p in (conv.weight, conv.bias, dense.weight, dense.bias)
        ]
        assert first == again and first is not again
        first.clear()  # a caller's list is its own
        assert len(net.parameters()) == 4

    def test_summary_mentions_layers(self):
        net = self.build()
        s = net.summary((1, 8, 8, 8))
        assert "conv1" in s and "fc1" in s and "total" in s

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_iteration_and_len(self):
        net = self.build()
        assert len(net) == 5
        assert len(list(net)) == 5

    def test_end_to_end_gradients(self):
        net = self.build()
        x = np.random.default_rng(1).standard_normal((1, 1, 8, 8, 8)).astype(np.float32)
        out = net(x)
        out.backward(np.ones_like(out.data))
        for p in net.parameters():
            assert p.grad is not None
            assert p.grad.shape == p.shape

    def test_training_reduces_loss(self):
        """Three plain-SGD steps on a fixed batch reduce the loss."""
        from repro.tensor import ops

        net = self.build()
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 1, 8, 8, 8)).astype(np.float32)
        y = rng.standard_normal((2, 4)).astype(np.float32)
        losses = []
        for _ in range(3):
            for p in net.parameters():
                p.zero_grad()
            loss = ops.mse_loss(net(Tensor(x)), Tensor(y))
            loss.backward()
            losses.append(loss.item())
            for p in net.parameters():
                p.data -= 0.01 * p.grad
        assert losses[-1] < losses[0]
