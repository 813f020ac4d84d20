"""The one-gather pack and the tiling pool gradient against the loops they
replaced, byte for byte.

``tests/primitives/two_pass_reference.py`` keeps the slab-loop ``_pack``
and the offset-loop ``avg_pool3d_backward``.  Neither does arithmetic the
new code could reorder, so the comparison is on bytes, over the whole
``(n, ic, spatial, kernel, stride, padding, dtype)`` product — the
one-strided-tap im2col plan (kernel 1, stride 2), inputs that are slices
of larger arrays, odd pool extents and non-tiling pools included.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.primitives import conv3d as kernels
from repro.primitives import quantized
from repro.primitives.conv3d import conv3d_forward, conv3d_pack
from repro.primitives.pool3d import avg_pool3d_backward
from tests.primitives import two_pass_reference as reference

DTYPES = [np.float32, np.float64]


def assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_fresh(got, *sources):
    """A result the caller may keep and write to: C-ordered, its own."""
    assert got.flags.c_contiguous and got.flags.writeable
    assert not any(np.shares_memory(got, src) for src in sources)


def embedded(rng, shape, dtype, how):
    """A random array of ``shape``, stored the way ``how`` says."""
    n, c, d, h, w = shape
    if how == "contiguous":
        return rng.standard_normal(shape).astype(dtype)
    if how == "slice":  # the interior of a larger array, like a depth slab
        big = rng.standard_normal((n + 1, c + 1, d + 3, h + 2, w + 4)).astype(dtype)
        return big[1:, :c, 2 : d + 2, 1 : h + 1, 3 : w + 3]
    if how == "channels_last":
        return rng.standard_normal((n, d, h, w, c)).astype(dtype).transpose(0, 4, 1, 2, 3)
    if how == "reversed":  # negative strides on D and W
        return rng.standard_normal(shape).astype(dtype)[:, :, ::-1, :, ::-1]
    raise AssertionError(how)


LAYOUTS = ["contiguous", "slice", "channels_last", "reversed"]


def both_plans(ic, spatial, kernel, stride, padding):
    geo = kernels._geometry(1, ic, spatial, kernel, stride, padding)
    k, s, p = (reference._triple(v) for v in (kernel, stride, padding))
    ref_plan = reference._plan(ic, k, s, reference.conv3d_output_shape(spatial, k, s, p))
    assert tuple(geo.plan) == tuple(ref_plan)
    return geo, ref_plan


class TestPack:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.sampled_from([1, 3]),
        ic=st.sampled_from([1, 2, 5, 16]),
        spatial=st.tuples(*[st.integers(3, 8)] * 3),
        kernel=st.tuples(*[st.sampled_from([1, 2, 3, 4])] * 3),
        stride=st.one_of(
            st.sampled_from([1, 2, 3]), st.tuples(*[st.sampled_from([1, 2, 3])] * 3)
        ),
        padding=st.one_of(st.sampled_from([0, 1]), st.tuples(*[st.sampled_from([0, 1])] * 3)),
        dtype=st.sampled_from(DTYPES),
        layout=st.sampled_from(LAYOUTS),
    )
    def test_pack_equals_the_slab_loop(
        self, seed, n, ic, spatial, kernel, stride, padding, dtype, layout
    ):
        pad = reference._triple(padding)
        assume(all(s + 2 * p >= k for s, p, k in zip(spatial, pad, kernel)))
        x = embedded(np.random.default_rng(seed), (n, ic) + spatial, dtype, layout)
        geo, ref_plan = both_plans(ic, spatial, kernel, stride, padding)
        xp = reference._pad_input(x, pad)
        want = reference._pack(xp, ref_plan)

        got = kernels._pack(xp, geo.plan)
        assert_same_bytes(got, want)
        assert_fresh(got, xp)
        assert_same_bytes(conv3d_pack(x, kernel, stride, padding), want)

    @pytest.mark.parametrize("ic", [1, 16])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_pointwise_kernel_stride_two(self, ic, layout):
        """``kernel=(1,1,1), stride=2``: the im2col plan's one pack-tap is
        *strided* (``slice(0, 2*(ow-1)+1, 2)``), the row-unrolled plan's is
        not — the W step comes from the tap, not from the stride."""
        x = embedded(np.random.default_rng(ic), (2, ic, 7, 6, 9), np.float32, layout)
        geo, ref_plan = both_plans(ic, (7, 6, 9), (1, 1, 1), 2, 0)
        assert len(geo.plan.pack_taps) == len(geo.plan.gemm_taps) == 1
        assert geo.plan.pack_taps[0].step == 2  # 1*1*1*ic <= 128: im2col for both
        assert_same_bytes(kernels._pack(x, geo.plan), reference._pack(x, ref_plan))
        assert_same_bytes(
            kernels._pack(x, geo.plan)[:, 0, 0, 0],
            np.ascontiguousarray(x[:, :, ::2, ::2, ::2].transpose(1, 0, 2, 3, 4)),
        )

    def test_row_unrolled_plan_with_w_stride(self):
        """Past the im2col threshold a packed row is the used part of an
        input row: W step 1 whatever the W stride."""
        x = embedded(np.random.default_rng(4), (2, 16, 6, 7, 9), np.float32, "slice")
        geo, ref_plan = both_plans(16, (6, 7, 9), (3, 3, 3), (1, 2, 2), (1, 0, 1))
        assert len(geo.plan.gemm_taps) == 3 and geo.plan.pack_taps[0].step is None
        xp = reference._pad_input(x, (1, 0, 1))
        assert_same_bytes(kernels._pack(xp, geo.plan), reference._pack(xp, ref_plan))

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize(
        "ic, stride, padding", [(1, 1, 0), (2, 2, 1), (16, (2, 1, 2), (0, 1, 1))]
    )
    def test_untaped_forward_packs_depth_slabs_of_any_input(
        self, monkeypatch, layout, ic, stride, padding
    ):
        """Without ``packed=`` the forward packs ``xp[b:b+1, :, d0:d1]``
        slices — non-contiguous views — one at a time."""
        rng = np.random.default_rng(7)
        x = embedded(rng, (2, ic, 9, 7, 8), np.float32, layout)
        w = rng.standard_normal((4, ic, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        geo, _ = both_plans(ic, (9, 7, 8), (3, 3, 3), stride, padding)
        monkeypatch.setattr(kernels, "_PACK_MAX_ELEMS", 2 * geo.plane_elems)
        slabs = []

        def spying(pack):
            return lambda v, plan: slabs.append(v.flags.c_contiguous) or pack(v, plan)

        monkeypatch.setattr(kernels, "_pack", spying(kernels._pack))
        got = conv3d_forward(x, w, b, stride, padding)
        assert len(slabs) > 2 and (ic == 1 or not any(slabs))  # one channel: a slab is a block
        monkeypatch.setattr(kernels, "_pack", spying(reference._pack))
        assert_same_bytes(got, conv3d_forward(x, w, b, stride, padding))


class TestWindowBounds:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("ic", [1, 16])
    def test_a_view_that_would_leave_the_array_is_refused(self, monkeypatch, axis, ic):
        """The raw-stride view is only as safe as the output shape it is
        sized by: one plane, row or column too many is a ``ValueError``
        where the geometry is derived, before any view exists."""
        real = kernels.conv3d_output_shape

        def one_too_many(*args):
            out = list(real(*args))
            out[axis] += 1
            return tuple(out)

        monkeypatch.setattr(kernels, "conv3d_output_shape", one_too_many)
        kernels._geometry.cache_clear()
        try:
            with pytest.raises(ValueError, match="packing windows reach"):
                kernels._geometry(1, ic, (6, 6, 6), (3, 3, 3), 2, 1)
            x = np.zeros((1, ic, 6, 6, 6), np.float32)
            with pytest.raises(ValueError, match="packing windows reach"):
                conv3d_pack(x, (3, 3, 3), 2, 1)
        finally:
            kernels._geometry.cache_clear()

    def test_the_view_is_read_only(self):
        x = np.zeros((1, 1, 4, 4, 4), np.float32)
        view = kernels._windows(x, kernels._geometry(1, 1, (4, 4, 4), 3, 1, 0).plan)
        assert not view.flags.writeable and np.shares_memory(view, x)


class TestQuantizedRows:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.sampled_from([1, 2]),
        c=st.sampled_from([1, 3, 16]),
        spatial=st.tuples(*[st.integers(3, 7)] * 3),
        kernel=st.tuples(*[st.sampled_from([1, 2, 3])] * 3),
        stride=st.tuples(*[st.sampled_from([1, 2])] * 3),
        padding=st.tuples(*[st.sampled_from([0, 1])] * 3),
        layout=st.sampled_from(LAYOUTS),
    )
    def test_im2col_rows_equal_the_slab_loop(
        self, seed, n, c, spatial, kernel, stride, padding, layout
    ):
        """Always im2col, whatever ``C * K^3``: the slab loop with every
        W-tap on the packing side, then rows = output positions."""
        assume(all(s + 2 * p >= k for s, p, k in zip(spatial, padding, kernel)))
        x = embedded(np.random.default_rng(seed), (n, c) + spatial, np.float32, layout)
        od, oh, ow = reference.conv3d_output_shape(spatial, kernel, stride, padding)
        taps = tuple(slice(zw, zw + stride[2] * (ow - 1) + 1, stride[2]) for zw in range(kernel[2]))
        plan = reference._Plan(kernel, stride, (od, oh, ow), taps, (slice(None),), ow)
        cols = reference._pack(reference._pad_input(x, padding), plan)
        want = np.ascontiguousarray(cols.transpose(4, 5, 6, 7, 0, 1, 2, 3)).reshape(
            n * od * oh * ow, -1
        )

        rows, out_shape = quantized._im2col_rows(x, kernel, stride, padding)
        assert out_shape == (n, od, oh, ow)
        assert_same_bytes(rows, want)


class TestPoolBackward:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.sampled_from([1, 2]),
        c=st.sampled_from([1, 3]),
        spatial=st.tuples(*[st.integers(2, 9)] * 3),
        kernel=st.one_of(st.integers(1, 3), st.tuples(*[st.integers(1, 3)] * 3)),
        stride=st.one_of(st.none(), st.integers(1, 3), st.tuples(*[st.integers(1, 3)] * 3)),
        dtype=st.sampled_from(DTYPES),
        layout=st.sampled_from(LAYOUTS),
    )
    def test_gradient_equals_the_offset_loop(
        self, seed, n, c, spatial, kernel, stride, dtype, layout
    ):
        assume(all(s >= k for s, k in zip(spatial, reference._triple(kernel))))
        out_shape = reference.conv3d_output_shape(
            spatial, kernel, kernel if stride is None else stride
        )
        g = embedded(np.random.default_rng(seed), (n, c) + out_shape, dtype, layout)
        got = avg_pool3d_backward(g, spatial, kernel, stride)
        assert_same_bytes(got, reference.avg_pool3d_backward(g, spatial, kernel, stride))
        assert_fresh(got, g)

    @pytest.mark.parametrize(
        "spatial, kernel, stride",
        [
            ((27, 27, 27), 2, None),  # the topology's 27 -> 13: a zero tail on every axis
            ((14, 14, 14), 2, 2),  # tiny_16 / scaled_32: tiles exactly
            ((7, 8, 9), (1, 2, 3), None),  # anisotropic tiling: W, H, D each repeat their own K
            ((9, 8, 7), (3, 2, 1), (3, 2, 1)),
            ((8, 8, 8), 3, 2),  # stride < kernel: overlapping windows accumulate
            ((9, 9, 9), 2, 3),  # stride > kernel: gaps stay zero
            ((9, 9, 9), (2, 2, 2), (2, 1, 3)),  # tiling on one axis only: not tiling
        ],
    )
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_named_cases(self, spatial, kernel, stride, dtype):
        out_shape = reference.conv3d_output_shape(
            spatial, kernel, kernel if stride is None else stride
        )
        g = np.random.default_rng(1).standard_normal((2, 3) + out_shape).astype(dtype)
        got = avg_pool3d_backward(g, spatial, kernel, stride)
        assert_same_bytes(got, reference.avg_pool3d_backward(g, spatial, kernel, stride))
        assert_fresh(got, g)

    def test_odd_extent_tail_is_zero(self):
        g = np.ones((1, 1, 13, 13, 13), np.float32)
        gi = avg_pool3d_backward(g, (27, 27, 27), 2)
        assert gi[..., :26, :26, :26].min() == gi.max() == np.float32(0.125)
        assert not gi[:, :, 26].any() and not gi[:, :, :, 26].any() and not gi[..., 26].any()
