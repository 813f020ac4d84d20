"""Tests for 3D average pooling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.primitives.conv3d import conv3d_forward
from repro.primitives.pool3d import (
    avg_pool3d_backward,
    avg_pool3d_forward,
    pool3d_output_shape,
)


class TestOutputShape:
    @pytest.mark.parametrize(
        "inp,k,s,expect",
        [
            ((126, 126, 126), 2, None, (63, 63, 63)),
            ((60, 60, 60), 2, None, (30, 30, 30)),
            ((27, 27, 27), 2, None, (13, 13, 13)),  # floor, as in the topology
            ((8, 8, 8), 3, 2, (3, 3, 3)),
        ],
    )
    def test_values(self, inp, k, s, expect):
        assert pool3d_output_shape(inp, k, s) == expect


class TestForward:
    def test_constant_input(self):
        x = np.full((1, 2, 4, 4, 4), 3.0, dtype=np.float32)
        out = avg_pool3d_forward(x, 2)
        np.testing.assert_allclose(out, 3.0)
        assert out.shape == (1, 2, 2, 2, 2)

    def test_manual_small_case(self):
        x = np.arange(8, dtype=np.float32).reshape(1, 1, 2, 2, 2)
        out = avg_pool3d_forward(x, 2)
        assert out.shape == (1, 1, 1, 1, 1)
        assert out[0, 0, 0, 0, 0] == pytest.approx(np.mean(np.arange(8)))

    def test_equals_constant_weight_conv(self):
        """The paper's definition: pooling == conv with weights 1/K^3 per channel."""
        rng = np.random.default_rng(0)
        c, k = 3, 2
        x = rng.standard_normal((2, c, 6, 6, 6)).astype(np.float32)
        w = np.zeros((c, c, k, k, k), dtype=np.float32)
        for i in range(c):
            w[i, i] = 1.0 / k**3
        np.testing.assert_allclose(
            avg_pool3d_forward(x, k),
            conv3d_forward(x, w, stride=k),
            rtol=1e-5,
            atol=1e-6,
        )

    def test_odd_extent_drops_tail(self):
        x = np.zeros((1, 1, 5, 5, 5), dtype=np.float32)
        x[0, 0, 4, 4, 4] = 100.0  # in the dropped tail
        out = avg_pool3d_forward(x, 2)
        assert out.shape == (1, 1, 2, 2, 2)
        np.testing.assert_allclose(out, 0.0)

    def test_channels_independent(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 4, 4, 4, 4)).astype(np.float32)
        out = avg_pool3d_forward(x, 2)
        for c in range(4):
            np.testing.assert_allclose(
                out[:, c : c + 1], avg_pool3d_forward(x[:, c : c + 1], 2)
            )

    def test_mean_preserved_when_divisible(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 1, 8, 8, 8)).astype(np.float64)
        out = avg_pool3d_forward(x, 2)
        assert out.mean() == pytest.approx(x.mean(), rel=1e-10)

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            avg_pool3d_forward(np.zeros((2, 4, 4, 4)), 2)


class TestBackward:
    def test_distributes_uniformly(self):
        g = np.ones((1, 1, 2, 2, 2), dtype=np.float32)
        gi = avg_pool3d_backward(g, (4, 4, 4), 2)
        np.testing.assert_allclose(gi, 1.0 / 8.0)

    def test_grad_sum_conserved(self):
        """sum(grad_in) == sum(grad_out): pooling is an average, its
        adjoint conserves total gradient mass."""
        rng = np.random.default_rng(3)
        g = rng.standard_normal((2, 3, 3, 3, 3)).astype(np.float64)
        gi = avg_pool3d_backward(g, (6, 6, 6), 2)
        assert gi.sum() == pytest.approx(g.sum(), rel=1e-10)

    def test_dropped_tail_gets_zero(self):
        g = np.ones((1, 1, 2, 2, 2), dtype=np.float32)
        gi = avg_pool3d_backward(g, (5, 5, 5), 2)
        assert gi.shape == (1, 1, 5, 5, 5)
        np.testing.assert_allclose(gi[0, 0, 4], 0.0)
        np.testing.assert_allclose(gi[0, 0, :4, :4, :4], 1.0 / 8.0)

    def test_matches_numerical_gradient(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 2, 5, 5, 5)).astype(np.float64)
        g = rng.standard_normal((1, 2, 2, 2, 2)).astype(np.float64)
        eps = 1e-5
        got = avg_pool3d_backward(g, (5, 5, 5), 2)
        # spot-check a few positions with central differences
        for idx in [(0, 0, 0, 0, 0), (0, 1, 2, 3, 1), (0, 0, 4, 4, 4), (0, 1, 3, 3, 3)]:
            orig = x[idx]
            x[idx] = orig + eps
            fp = float(np.sum(avg_pool3d_forward(x, 2) * g))
            x[idx] = orig - eps
            fm = float(np.sum(avg_pool3d_forward(x, 2) * g))
            x[idx] = orig
            assert got[idx] == pytest.approx((fp - fm) / (2 * eps), abs=1e-6)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            avg_pool3d_backward(np.zeros((1, 1, 3, 3, 3)), (4, 4, 4), 2)

    # Non-overlapping windows are written by assignment, overlapping ones
    # accumulated; stride > kernel leaves gaps that must stay zero.
    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 2), (2, 3), ((2, 3, 2), (2, 2, 3))])
    def test_is_adjoint_of_forward(self, kernel, stride):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 7, 8, 9))
        out = avg_pool3d_forward(x, kernel, stride)
        g = rng.standard_normal(out.shape)
        gi = avg_pool3d_backward(g, x.shape[2:], kernel, stride)
        assert np.sum(out * g) == pytest.approx(np.sum(x * gi), rel=1e-10)

    @given(
        size=st.integers(min_value=2, max_value=9),
        k=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_grad_mass(self, size, k, seed):
        if k > size:
            return
        rng = np.random.default_rng(seed)
        out_shape = pool3d_output_shape((size,) * 3, k)
        g = rng.standard_normal((1, 1) + out_shape)
        gi = avg_pool3d_backward(g, (size,) * 3, k)
        assert gi.sum() == pytest.approx(g.sum(), rel=1e-9, abs=1e-9)
