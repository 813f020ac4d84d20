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
* the BLAS properties the chain's GEMMs rely on, and the one it does not;
* a grouped pass (the simulated ranks of a stepped step) gives each group
  its own call's loss and gradients, byte for byte, however the groups
  fall into chunks.
"""

import numpy as np
import pytest

from repro.core.model import CosmoFlowModel
from repro.core.precision import (
    fp16_group_loss_and_gradients,
    fp16_loss_and_gradients,
    fp16_round,
)
from repro.core.topology import scaled_32, tiny_16
from repro.primitives import conv3d as kernels
from repro.tensor import ops
from repro.tensor.layers import AvgPool3D, Conv3D, Dense, Flatten, LeakyReLU, Sequential
from repro.tensor.tensor import Tensor, no_grad
from repro.utils import cores
from tests.core import tape_reference
from tests.gradcheck import check_layer_grads

PRESETS = {"tiny_16": tiny_16, "scaled_32": scaled_32}
#: Group layouts of a joined batch: sizes in order.
GROUPINGS = {"1+1+1+1": (1, 1, 1, 1), "2+1+3": (2, 1, 3), "3+3": (3, 3)}


@pytest.fixture(scope="module")
def models():
    return {name: CosmoFlowModel(preset(), seed=0) for name, preset in PRESETS.items()}


def case(model, n, seed=0):
    s = model.config.input_size
    rng = np.random.default_rng([seed, n])
    return rng.standard_normal((n, 1, s, s, s)).astype(np.float32), rng.random((n, 3), dtype=np.float32)


def as_bytes(loss, grads):
    return np.float64(loss).tobytes(), [g.tobytes() for g in grads]


def bounds(sizes):
    """``sizes`` as the ``(start, stop)`` runs the layers take as ``groups``."""
    edges = np.cumsum((0,) + tuple(sizes)).tolist()
    return tuple(zip(edges[:-1], edges[1:]))


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
        ],
        ids=["lrelu", "relu", "lrelu-steep", "pool", "pool-overlapping", "flatten"],
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

    @pytest.mark.parametrize("sizes", GROUPINGS.values(), ids=GROUPINGS)
    @pytest.mark.parametrize("preset", PRESETS)
    def test_a_group_of_a_joined_convolution_is_its_own_call(self, models, preset, sizes):
        """One convolution over joined groups: each group's forward output and
        input gradient are its own call's (its columns of one GEMM), and its
        weight and bias gradients, from its block of the joined operands,
        are its own call's too."""
        model = models[preset]
        x, _ = case(model, sum(sizes), seed=10)
        groups = bounds(sizes)
        rng = np.random.default_rng(11)
        for layer in model.network:
            if isinstance(layer, Dense):
                break
            if isinstance(layer, Conv3D):
                w, b = layer.weight.data, layer.bias.data
                packed = kernels.conv3d_pack(x, w.shape[2:])
                out = kernels.conv3d_forward(x, w, b, packed=packed)
                g = rng.standard_normal(out.shape).astype(np.float32)
                gx, gw, gb = kernels.conv3d_backward(
                    x, g, w, with_bias=True, packed=packed, groups=groups
                )
                assert gw.shape == (len(sizes),) + w.shape and gb.shape == (len(sizes),) + b.shape
                for i, (lo, hi) in enumerate(groups):
                    xi = x[lo:hi].copy()
                    own = kernels.conv3d_pack(xi, w.shape[2:])
                    want_out = kernels.conv3d_forward(xi, w, b, packed=own)
                    want = kernels.conv3d_backward(xi, g[lo:hi].copy(), w, with_bias=True, packed=own)
                    assert out[lo:hi].tobytes() == want_out.tobytes(), layer.name
                    assert gx[lo:hi].tobytes() == want[0].tobytes(), layer.name
                    assert gw[i].tobytes() == want[1].tobytes(), layer.name
                    assert gb[i].tobytes() == want[2].tobytes(), layer.name
            x = layer.forward(x)[0]

    def test_the_dense_row_split_is_not_assumed(self, models, monkeypatch):
        """A batched ``x @ W``'s rows are not the one-row products' bytes on
        this BLAS, so a grouped pass runs every dense layer once per group
        and a dense layer refuses to run grouped."""
        model = models["tiny_16"]
        sizes = (2, 1, 3)
        seen = []
        forward = Dense.forward

        def spy(self, x, keep=False, groups=None):
            seen.append(len(x))
            return forward(self, x, keep, groups)

        monkeypatch.setattr(Dense, "forward", spy)
        x, y = case(model, sum(sizes))
        model.group_loss_and_gradients(x, y, sizes)
        n_dense = sum(isinstance(layer, Dense) for layer in model.network)
        assert seen == [n for n in sizes for _ in range(n_dense)]
        with pytest.raises(ValueError, match="once per group"):
            model.network.forward(x, keep=True, groups=bounds(sizes))


class TestGroupsAreRanks:
    """``group_loss_and_gradients``: the simulated ranks of a stepped step
    as the groups of one pass, each getting its own call's bytes."""

    @staticmethod
    def separately(model, x, y, sizes, step=CosmoFlowModel.loss_and_gradients):
        return [
            as_bytes(*step(model, x[lo:hi].copy(), y[lo:hi].copy())) for lo, hi in bounds(sizes)
        ]

    @pytest.mark.parametrize("sizes", GROUPINGS.values(), ids=GROUPINGS)
    @pytest.mark.parametrize("preset", PRESETS)
    def test_each_group_gets_its_own_calls_bytes(self, models, preset, sizes):
        model = models[preset]
        x, y = case(model, sum(sizes), seed=12)
        got = model.group_loss_and_gradients(x, y, sizes)
        assert [as_bytes(*pair) for pair in got] == self.separately(model, x, y, sizes)
        # Fresh arrays: no group's gradient shares memory with another's.
        flat = [g for _, grads in got for g in grads]
        assert not any(
            np.shares_memory(a, b) for i, a in enumerate(flat) for b in flat[i + 1 :]
        )

    @pytest.mark.parametrize("preset", PRESETS)
    def test_the_fp16_path(self, models, preset):
        model = models[preset]
        sizes, scale = (2, 1, 3), 512.0
        x, y = case(model, sum(sizes), seed=13)
        got = fp16_group_loss_and_gradients(model, x, y, sizes, scale)

        def fp16_step(m, xi, yi):
            return fp16_loss_and_gradients(m, xi, yi, scale)

        assert [as_bytes(*pair) for pair in got] == self.separately(
            model, x, y, sizes, fp16_step
        )

    @pytest.mark.parametrize("bound", ["pack", "macs"])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_chunks_change_no_byte(self, models, preset, bound, monkeypatch):
        """Runs of groups past either bound of ``_chunks`` split into
        chunks; a group too large for a run alone runs alone (and, past the
        packing budget, packs inside its own backward).  Neither moves a
        bit."""
        model = models[preset]
        sizes = (1, 1, 1, 1, 2, 1)
        x, y = case(model, sum(sizes), seed=14)
        want = self.separately(model, x, y, sizes)
        if bound == "pack":
            monkeypatch.setattr(cores, "_HELPER_MIN_MACS", float("inf"))
            name, per_sample = "_PACK_MAX_ELEMS", model._packed_per_sample
        else:
            name, per_sample = "_HELPER_MIN_MACS", model._prefix_macs
        for budget, chunks in [
            (2 * per_sample, [(1, 1), (1, 1), (2,), (1,)]),
            (3 * per_sample, [(1, 1, 1), (1, 2), (1,)]),
            (per_sample // 2, [(1,), (1,), (1,), (1,), (2,), (1,)]),
        ]:
            monkeypatch.setattr(kernels if bound == "pack" else cores, name, budget)
            runs = [tuple(hi - lo for lo, hi in groups) for _, groups in model._chunks(len(x), sizes)]
            assert runs == chunks
            got = model.group_loss_and_gradients(x, y, sizes)
            assert [as_bytes(*pair) for pair in got] == want, budget

    def test_a_scaled_32_sample_runs_alone_and_tiny_16_joins_eight(self, models):
        for preset, run in [("scaled_32", 1), ("tiny_16", 8)]:
            chunks = models[preset]._chunks(16, [1] * 16)
            assert [len(groups) for _, groups in chunks] == [run] * (16 // run), preset

    def test_sizes_must_split_the_batch(self, models):
        model = models["tiny_16"]
        x, y = case(model, 3)
        for sizes in [(1, 1), (2, 2), (3, 0), ()]:
            with pytest.raises(ValueError, match="do not split"):
                model.group_loss_and_gradients(x, y, sizes)


def test_a_target_of_the_wrong_shape_is_refused(models):
    model = models["tiny_16"]
    x, y = case(model, 2)
    with pytest.raises(ValueError, match="target shape"):
        model.loss_and_gradients(x, y[:, :2])
