"""CosmoFlow's network as a chain: each layer owns its forward and backward
on plain arrays, and the model runs them in one loop each way.

Pinned here:
* the chain's loss and every gradient are the tape's byte for byte
  (``tape_reference.py``, a frozen copy of the per-op closures), at both
  test presets, batch 1 and 3, fp32 and the fp16 path;
* each layer's backward, and the whole chain's, against finite
  differences of its forward;
* gradients are fresh arrays on every call, and a context lives in the
  call, never on the layer;
* the ``Tensor`` adapter (``layer(t)`` ... ``loss.backward()``) gives the
  chain's bytes;
* the two BLAS properties the chain's GEMMs rely on.
"""

import numpy as np
import pytest

from repro.core.model import CosmoFlowModel
from repro.core.precision import fp16_loss_and_gradients, fp16_round
from repro.core.topology import scaled_32, tiny_16
from repro.primitives import conv3d as kernels
from repro.tensor import ops
from repro.tensor.layers import AvgPool3D, Conv3D, Dense, Flatten, LeakyReLU, Sequential
from repro.tensor.tensor import Tensor, no_grad
from tests.core import tape_reference
from tests.gradcheck import check_layer_grads

PRESETS = {"tiny_16": tiny_16, "scaled_32": scaled_32}


@pytest.fixture(scope="module")
def models():
    return {name: CosmoFlowModel(preset(), seed=0) for name, preset in PRESETS.items()}


def case(model, n, seed=0):
    s = model.config.input_size
    rng = np.random.default_rng([seed, n])
    return rng.standard_normal((n, 1, s, s, s)).astype(np.float32), rng.random((n, 3), dtype=np.float32)


def as_bytes(loss, grads):
    return np.float64(loss).tobytes(), [g.tobytes() for g in grads]


class TestBitsAgainstTheTape:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_fp32(self, models, preset, n):
        model = models[preset]
        x, y = case(model, n)
        want = tape_reference.loss_and_gradients(model, x, y)
        loss, grads = model.loss_and_gradients(x, y)
        assert as_bytes(loss, grads) == as_bytes(*want)
        assert all(g.dtype == np.float32 for g in grads)
        # ``.grad`` is left as the tape left it: the returned arrays.
        assert all(p.grad is g for p, g in zip(model.parameters(), grads))

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_fp16_path(self, models, preset, n):
        model = models[preset]
        x, y = case(model, n, seed=1)
        scale = 1024.0
        ref_loss, ref_grads = tape_reference.loss_and_gradients(model, fp16_round(x), y)
        want = [fp16_round(g * np.float32(scale)) for g in ref_grads]
        assert as_bytes(*fp16_loss_and_gradients(model, x, y, scale)) == as_bytes(ref_loss, want)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_the_tensor_adapter_gives_the_chains_bytes(self, models, preset):
        """What the bench's hand-driven step runs: one taped node per layer,
        whose backward is the layer's own."""
        model = models[preset]
        x, y = case(model, 2, seed=2)
        want = as_bytes(*model.loss_and_gradients(x, y))
        model.zero_grad()
        t = Tensor(x)
        for layer in model.network:
            t = layer(t)
        loss = ops.mse_loss(t, Tensor(y))
        loss.backward()
        assert as_bytes(loss.item(), [p.grad for p in model.parameters()]) == want
        model.zero_grad()
        loss = model.loss(x, y)
        loss.backward()
        assert as_bytes(loss.item(), [p.grad for p in model.parameters()]) == want
        with no_grad():
            untaped = model.forward(x)
        assert not untaped.requires_grad
        assert untaped.data.tobytes() == model.predict_normalized(x).tobytes()


class TestFreshArraysAndContexts:
    def test_successive_calls_hand_out_fresh_gradients(self, models):
        """A stepped backend keeps every rank's list until the reduce: a
        later call may not write into an earlier call's arrays."""
        model = models["tiny_16"]
        (x1, y1), (x2, y2) = case(model, 1, seed=3), case(model, 1, seed=4)
        _, first = model.loss_and_gradients(x1, y1)
        kept = [g.copy() for g in first]
        _, second = model.loss_and_gradients(x2, y2)
        for a, b in zip(first, second):
            assert not np.shares_memory(a, b)
        assert [g.tobytes() for g in first] == [g.tobytes() for g in kept]
        assert [g.tobytes() for g in first] != [g.tobytes() for g in second]

    @pytest.mark.parametrize("preset", PRESETS)
    def test_a_context_lives_in_the_call(self, models, preset):
        """Two calls' forwards before either backward (as two threads, or a
        caller holding two steps): each backward sees its own forward."""
        net = models[preset].network
        (xa, _), (xb, _) = case(models[preset], 1, seed=5), case(models[preset], 1, seed=6)
        out, ctx_a = net.forward(xa, keep=True)
        g = np.random.default_rng(7).standard_normal(out.shape).astype(np.float32)
        want = [a.tobytes() for a in net.backward(ctx_a, g, need_input_grad=False)[1:]]
        out_b, ctx_b = net.forward(xb, keep=True)
        net.forward(xb * 2)
        got = [a.tobytes() for a in net.backward(ctx_a, g, need_input_grad=False)[1:]]
        assert got == want
        other = [a.tobytes() for a in net.backward(ctx_b, g, need_input_grad=False)[1:]]
        assert other != want

    def test_a_forward_without_keep_keeps_nothing(self, models):
        net = models["tiny_16"].network
        x, _ = case(models["tiny_16"], 1)
        for layer in net:
            x, ctx = layer.forward(x)
            assert ctx is None, layer.name

    def test_the_first_layer_skips_its_input_gradient(self, models):
        model = models["tiny_16"]
        x, _ = case(model, 1)
        out, ctx = model.network.forward(x, keep=True)
        g = np.ones_like(out)
        skipped = model.network.backward(ctx, g, need_input_grad=False)
        full = model.network.backward(ctx, g)
        assert skipped[0] is None and full[0].shape == x.shape
        assert [a.tobytes() for a in skipped[1:]] == [a.tobytes() for a in full[1:]]


def float64(layer):
    for p in layer.parameters():
        p.data = p.data.astype(np.float64)
    return layer


def randn(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestGradcheckPerLayer:
    @pytest.mark.parametrize(
        "layer, shape",
        [
            (Conv3D(1, 3, 3, rng=0), (2, 1, 5, 5, 5)),  # im2col plan
            (Conv3D(2, 3, (3, 2, 3), stride=2, padding=1, rng=1), (2, 2, 5, 6, 5)),
            (Conv3D(6, 2, 3, bias=False, rng=2), (1, 6, 4, 4, 5)),  # W-taps after the GEMM
            (Dense(5, 4, rng=3), (3, 5)),
            (Dense(5, 4, bias=False, rng=4), (1, 5)),
        ],
        ids=["conv-im2col", "conv-strided-padded", "conv-no-bias", "dense", "dense-no-bias"],
    )
    def test_weighted_layers(self, layer, shape):
        check_layer_grads(float64(layer), randn(*shape))

    @pytest.mark.parametrize(
        "layer, shape",
        [
            (LeakyReLU(0.2), (2, 3, 4)),
            (LeakyReLU(0.0), (2, 3, 4)),
            (LeakyReLU(1.5), (2, 3, 4)),
            (AvgPool3D(2), (2, 2, 5, 4, 6)),
            (AvgPool3D(3, stride=2), (1, 2, 5, 5, 5)),
            (Flatten(), (2, 3, 2, 2)),
            (Flatten(start_axis=2), (2, 3, 2, 2)),
        ],
        ids=["lrelu", "relu", "lrelu-steep", "pool", "pool-overlapping", "flatten", "flatten-2"],
    )
    def test_layers_without_weights(self, layer, shape):
        check_layer_grads(layer, randn(*shape, seed=1))

    def test_the_whole_chain(self):
        net = float64(Sequential([
            Conv3D(1, 4, 3, rng=5, name="c1"),
            LeakyReLU(name="a1"),
            AvgPool3D(2, name="p1"),
            Conv3D(4, 3, 2, rng=6, name="c2"),
            LeakyReLU(name="a2"),
            Flatten(name="f"),
            Dense(3 * 8, 5, rng=7, name="d1"),
            LeakyReLU(name="a3"),
            Dense(5, 2, rng=8, name="d2"),
        ]))
        # A small step: a perturbation that moves a pre-activation across
        # a leaky-ReLU kink measures neither side's slope.
        check_layer_grads(net, randn(2, 1, 8, 8, 8, seed=2), eps=1e-7)


class TestBlasProperties:
    """Two GEMM forms the chain uses in place of the tape's, byte-equal on
    the BLAS build they were measured on — a property of that build, like
    ``tests/golden``'s ``host_fingerprint``, checked here at every preset's
    shapes so another build that rounds them differently fails loudly."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_weight_gradient_with_the_taps_as_the_long_axis(self, models, preset, n):
        model = models[preset]
        x, _ = case(model, n, seed=8)
        rng = np.random.default_rng(9)
        for layer in model.network:
            if isinstance(layer, Conv3D):
                w = layer.weight.data
                geo = kernels._geometry(n, x.shape[1], x.shape[2:], w.shape[2:], 1, 0)
                rows = kernels.conv3d_pack(x, w.shape[2:]).reshape(geo.reduction, -1)
                out = layer.forward(x)[0]
                shifted = kernels._shifted_grad(
                    rng.standard_normal(out.shape).astype(np.float32), geo.plan
                )
                want = shifted @ rows.T
                assert np.ascontiguousarray((rows @ shifted.T).T).tobytes() == want.tobytes(), layer.name
            x = layer.forward(x)[0]

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_dense_weight_gradient_by_np_dot(self, models, preset, n):
        rng = np.random.default_rng(n)
        for layer in models[preset].network:
            if isinstance(layer, Dense):
                x = rng.standard_normal((n, layer.in_features)).astype(np.float32)
                g = rng.standard_normal((n, layer.out_features)).astype(np.float32)
                x[0, :3], g[0, :2] = 0.0, -0.0  # signed zeros keep their sign
                assert np.dot(x.T, g).tobytes() == (x.T @ g).tobytes(), layer.name


def test_a_target_of_the_wrong_shape_is_refused(models):
    model = models["tiny_16"]
    x, y = case(model, 2)
    with pytest.raises(ValueError, match="target shape"):
        model.loss_and_gradients(x, y[:, :2])
