"""Gradient corners the CosmoFlow presets never reach: pooling over
extents the kernel does not divide (floor semantics — trailing voxels are
dropped and must receive exactly zero gradient) and overlapping windows;
and the fp16 pipeline's gradients against fp32.
"""

import numpy as np

from repro.tensor.layers import AvgPool3D
from repro.tensor.tensor import Tensor
from tests.gradcheck import check_layer_grads


def randn(rng, *shape):
    return rng.standard_normal(shape)


class TestPoolNonDivisible:
    def test_pool_floor_semantics_gradcheck(self):
        # 5^3 input with kernel 2 -> 2^3 output; the trailing plane in
        # each axis is dropped by floor division.
        rng = np.random.default_rng(10)
        check_layer_grads(AvgPool3D(2), randn(rng, 1, 1, 5, 5, 5))

    def test_dropped_voxels_get_zero_grad(self):
        rng = np.random.default_rng(11)
        x = Tensor(randn(rng, 1, 1, 5, 5, 5), requires_grad=True)
        AvgPool3D(2)(x).backward(np.ones((1, 1, 2, 2, 2)))
        g = x.grad
        # Covered voxels each contribute to exactly one window: 1/8.
        np.testing.assert_allclose(g[:, :, :4, :4, :4], 1.0 / 8)
        assert np.all(g[:, :, 4, :, :] == 0)
        assert np.all(g[:, :, :, 4, :] == 0)
        assert np.all(g[:, :, :, :, 4] == 0)

    def test_pool_stride_smaller_than_kernel(self):
        # Overlapping windows: each interior voxel feeds several
        # windows, so the gradient must accumulate across them.
        rng = np.random.default_rng(12)
        check_layer_grads(AvgPool3D(3, stride=2), randn(rng, 1, 1, 5, 5, 5))


class TestFp16PipelineGradients:
    """Gradients under the mixed-precision recipe (fp16-rounded inputs
    and scaled fp16-rounded outputs) vs the fp32 reference.

    The fp16 pipeline is *defined* as a deterministic transform of the
    fp32 tape: round the inputs, run the fp32 graph, scale and round
    the gradients.  These tests pin (a) the exact cast relation —
    ``g16 == fp16(fp32_grad(fp16(x)) * S)`` bitwise — and (b) that the
    rounding error stays within fp16 resolution of the fp32 gradient
    across the model's corner shapes.
    """

    def _model_grads(self, seed, precision_scale=None, size=16):
        from repro.core.model import CosmoFlowModel
        from repro.core.precision import fp16_loss_and_gradients, fp16_round
        from repro.core.topology import tiny_16

        rng = np.random.default_rng(seed)
        model = CosmoFlowModel(tiny_16(), seed=0)
        x = rng.standard_normal((2, 1, size, size, size)).astype(np.float32)
        y = rng.uniform(0.2, 0.8, size=(2, 3)).astype(np.float32)
        if precision_scale is None:
            return model.loss_and_gradients(x, y)
        return fp16_loss_and_gradients(model, x, y, precision_scale)

    def test_exact_cast_relation(self):
        # The fp16 pipeline's gradients ARE the fp32 gradients of the
        # fp16-rounded input, scaled and rounded — bitwise.
        from repro.core.model import CosmoFlowModel
        from repro.core.precision import fp16_loss_and_gradients, fp16_round
        from repro.core.topology import tiny_16

        rng = np.random.default_rng(20)
        x = rng.standard_normal((2, 1, 16, 16, 16)).astype(np.float32)
        y = rng.uniform(0.2, 0.8, size=(2, 3)).astype(np.float32)
        scale = 512.0

        m16 = CosmoFlowModel(tiny_16(), seed=0)
        _, g16 = fp16_loss_and_gradients(m16, x, y, scale)

        m32 = CosmoFlowModel(tiny_16(), seed=0)
        _, g32 = m32.loss_and_gradients(fp16_round(x), y)
        s = np.float32(scale)
        for a, b in zip(g16, g32):
            assert np.array_equal(a, fp16_round(np.asarray(b, np.float32) * s))

    def test_fp16_grads_within_fp16_tolerance_of_fp32(self):
        # Against the fp32 gradients *at the fp16-rounded input* the
        # only remaining difference is the output-side g vs
        # fp16(g*S)/S rounding — bounded by one fp16 ulp at the
        # tensor's magnitude (plus the subnormal floor over S).
        from repro.core.model import CosmoFlowModel
        from repro.core.precision import LossScaler, fp16_loss_and_gradients, fp16_round
        from repro.core.topology import tiny_16

        rng = np.random.default_rng(21)
        x = rng.standard_normal((2, 1, 16, 16, 16)).astype(np.float32)
        y = rng.uniform(0.2, 0.8, size=(2, 3)).astype(np.float32)
        scaler = LossScaler(init_scale=1024.0)

        m16 = CosmoFlowModel(tiny_16(), seed=0)
        loss16, g16_scaled = fp16_loss_and_gradients(m16, x, y, scaler.scale)
        g16 = scaler.unscale(g16_scaled)
        assert not scaler.check_overflow(g16)

        m32 = CosmoFlowModel(tiny_16(), seed=0)
        loss32, g32 = m32.loss_and_gradients(fp16_round(x), y)
        assert loss16 == loss32  # same forward pass, loss unscaled
        for a, b in zip(g16, g32):
            b = np.asarray(b, np.float32)
            tol = 2.0**-10 * max(1e-6, float(np.max(np.abs(b)))) + 2.0**-24 / scaler.scale
            assert np.max(np.abs(a - b)) <= tol

    def test_fp16_grads_track_fp32_at_unrounded_input(self):
        # End-to-end: against the true fp32 gradients (unrounded input)
        # the fp16 pipeline stays within a few percent relative error —
        # the looser bound that catches catastrophic scaling bugs.
        from repro.core.precision import LossScaler

        scaler = LossScaler(init_scale=1024.0)
        loss32, g32 = self._model_grads(21)
        loss16, g16_scaled = self._model_grads(21, precision_scale=scaler.scale)
        g16 = scaler.unscale(g16_scaled)
        assert abs(loss16 - loss32) <= 1e-2 * max(1.0, abs(loss32))
        for a, b in zip(g16, g32):
            b = np.asarray(b, np.float32)
            assert np.max(np.abs(a - b)) <= 0.05 * max(1e-6, float(np.max(np.abs(b))))
