"""The one gemm backward against the two-pass reference, bit for bit.

``tests/primitives/two_pass_reference.py`` is the specification: the
parent's ``conv3d_backward_data`` / ``conv3d_backward_weights``, each
deriving its own geometry and building its own shifted gradient.
``conv3d_backward`` (and the two per-pass names, now calls into the same
code) must return the same bits and raise the same errors.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.primitives import conv3d as kernels
from repro.primitives.conv3d import (
    conv3d_backward,
    conv3d_backward_data,
    conv3d_backward_weights,
    conv3d_pack,
)
from repro.tensor import Tensor
from repro.tensor.layers import Conv3D
from repro.tensor.tensor import Parameter
from tests.primitives import two_pass_reference as reference


def conv(w, b=None, stride=1, padding=0):
    """A ``Conv3D`` layer over the given weight tensors."""
    layer = Conv3D(w.shape[1], w.shape[0], w.shape[2:], stride, padding, bias=b is not None)
    layer.weight, layer.bias = w, b
    return layer


def make_case(seed, n, ic, oc, spatial, kernel, stride, padding):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, ic) + spatial).astype(np.float32)
    w = rng.standard_normal((oc, ic) + kernel).astype(np.float32)
    out_shape = reference.conv3d_output_shape(spatial, kernel, stride, padding)
    g = rng.standard_normal((n, oc) + out_shape).astype(np.float32)
    return x, w, g


def assert_matches_reference(x, w, g, stride, padding, *, use_packed, need_x, need_w, with_bias):
    kernel = w.shape[2:]
    packed = conv3d_pack(x, kernel, stride, padding) if use_packed else None
    shared = {} if packed is None else {"packed": packed}
    gx, gw, gb = conv3d_backward(
        x, g, w, stride, padding,
        with_bias=with_bias, need_input_grad=need_x, need_weight_grad=need_w, **shared,
    )
    if need_x:
        want = reference.conv3d_backward_data(g, w, x.shape[2:], stride, padding)
        np.testing.assert_array_equal(gx, want)
        assert gx.dtype == want.dtype and gx.flags.c_contiguous
        np.testing.assert_array_equal(
            conv3d_backward_data(g, w, x.shape[2:], stride, padding), want
        )
    else:
        assert gx is None
    if need_w:
        want = reference.conv3d_backward_weights(
            x, g, kernel, stride, padding, with_bias=with_bias, **shared
        )
        got = conv3d_backward_weights(x, g, kernel, stride, padding, with_bias, **shared)
        if with_bias:
            np.testing.assert_array_equal(gw, want[0])
            np.testing.assert_array_equal(gb, want[1])
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
        else:
            assert gb is None
            np.testing.assert_array_equal(gw, want)
            np.testing.assert_array_equal(got, want)
    else:
        assert gw is None and gb is None


class TestBitwiseParity:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.sampled_from([1, 3]),
        ic=st.sampled_from([1, 2, 5, 16, 24]),
        oc=st.sampled_from([1, 3, 16]),
        spatial=st.tuples(*[st.integers(3, 7)] * 3),
        kernel=st.tuples(*[st.sampled_from([1, 2, 3, 4])] * 3),
        stride=st.one_of(st.sampled_from([1, 2]), st.tuples(*[st.sampled_from([1, 2])] * 3)),
        padding=st.one_of(st.sampled_from([0, 1]), st.tuples(*[st.sampled_from([0, 1])] * 3)),
        use_packed=st.booleans(),
        need_x=st.booleans(),
        need_w=st.booleans(),
        with_bias=st.booleans(),
    )
    def test_every_gradient_equals_the_two_pass_reference(
        self, seed, n, ic, oc, spatial, kernel, stride, padding,
        use_packed, need_x, need_w, with_bias,
    ):
        pad = reference._triple(padding)
        assume(all(s + 2 * p >= k for s, p, k in zip(spatial, pad, kernel)))
        x, w, g = make_case(seed, n, ic, oc, spatial, kernel, stride, padding)
        assert_matches_reference(
            x, w, g, stride, padding,
            use_packed=use_packed, need_x=need_x, need_w=need_w, with_bias=with_bias,
        )

    @pytest.mark.parametrize("ic, im2col", [(1, True), (4, True), (5, False), (16, False)])
    @pytest.mark.parametrize("stride, padding", [(1, 0), (2, 1), ((1, 2, 1), (1, 0, 1))])
    @pytest.mark.parametrize("use_packed", [False, True])
    def test_both_plan_kinds(self, ic, im2col, stride, padding, use_packed):
        """``IC * 27 <= 128`` unrolls W into the reduction (im2col); past
        that the W-taps are applied after the GEMM (row-unrolled)."""
        x, w, g = make_case(3, 2, ic, 8, (7, 6, 8), (3, 3, 3), stride, padding)
        geo = kernels._geometry(2, ic, (7, 6, 8), (3, 3, 3), stride, padding)
        assert (len(geo.plan.gemm_taps) == 1) == im2col
        assert_matches_reference(
            x, w, g, stride, padding,
            use_packed=use_packed, need_x=True, need_w=True, with_bias=True,
        )

    def test_tape_gradients_equal_the_reference(self):
        """Through a ``Conv3D`` on the tape: one node, one kernel call, same
        bits."""
        x, w, g = make_case(5, 2, 16, 8, (6, 6, 6), (3, 3, 3), 2, 1)
        b = np.linspace(-1, 1, 8, dtype=np.float32)
        xt, wt, bt = Parameter(x), Parameter(w), Parameter(b)
        conv(wt, bt, 2, 1)(xt).backward(g)
        np.testing.assert_array_equal(
            xt.grad, reference.conv3d_backward_data(g, w, (6, 6, 6), 2, 1)
        )
        want_w, want_b = reference.conv3d_backward_weights(x, g, (3, 3, 3), 2, 1, with_bias=True)
        np.testing.assert_array_equal(wt.grad, want_w)
        np.testing.assert_array_equal(bt.grad, want_b)

        wt2 = Parameter(w)
        conv(wt2, None, 2, 1)(Tensor(x)).backward(g)
        np.testing.assert_array_equal(wt2.grad, want_w)


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestInvalidShapes:
    """Each invalid-shape case raises what the reference raises, whether
    the geometry is being derived (cold) or looked up (warm)."""

    def setup_method(self):
        self.x, self.w, self.g = make_case(7, 2, 16, 8, (6, 6, 6), (3, 3, 3), 1, 0)

    def both_ways(self, ref_call, *calls):
        want = raised(ref_call)
        assert want[0] is ValueError
        for call in calls:
            kernels._geometry.cache_clear()
            assert raised(call) == want  # cold
            assert raised(call) == want  # after a failed look-up
            conv3d_backward(self.x, self.g, self.w)  # the valid geometry is cached now
            assert raised(call) == want  # warm
        return want[1]

    def test_grad_channel_mismatch(self):
        g, w, x = self.g[:, :5], self.w, self.x
        msg = self.both_ways(
            lambda: reference.conv3d_backward_data(g, w, (6, 6, 6)),
            lambda: conv3d_backward_data(g, w, (6, 6, 6)),
            lambda: conv3d_backward(x, g, w),
        )
        assert msg == "grad channels 5 != weight output channels 8"

    def test_input_channel_mismatch(self):
        with pytest.raises(ValueError, match="input channels 7 != weight channels 16"):
            conv3d_backward(self.x[:, :7], self.g, self.w)

    def test_batch_mismatch(self):
        x, g, w = self.x[:1], self.g, self.w
        msg = self.both_ways(
            lambda: reference.conv3d_backward_weights(x, g, (3, 3, 3)),
            lambda: conv3d_backward_weights(x, g, (3, 3, 3)),
            lambda: conv3d_backward(x, g, w),
        )
        assert msg == "batch mismatch: input 1 vs grad 2"

    def test_inconsistent_grad_spatial_shape(self):
        x, g, w = self.x, self.g[:, :, :3], self.w
        msg = self.both_ways(
            lambda: reference.conv3d_backward_data(g, w, (6, 6, 6)),
            lambda: conv3d_backward_data(g, w, (6, 6, 6)),
            lambda: conv3d_backward(x, g, w),
        )
        assert msg == (
            "grad spatial shape (3, 4, 4) inconsistent with input (6, 6, 6) "
            "(expected (4, 4, 4))"
        )
        self.both_ways(
            lambda: reference.conv3d_backward_weights(x, g, (3, 3, 3)),
            lambda: conv3d_backward_weights(x, g, (3, 3, 3)),
        )

    def test_foreign_packed_operand(self):
        x, g, w = self.x, self.g, self.w
        packed = conv3d_pack(x[:1], (3, 3, 3))
        msg = self.both_ways(
            lambda: reference.conv3d_backward_weights(x, g, (3, 3, 3), packed=packed),
            lambda: conv3d_backward_weights(x, g, (3, 3, 3), packed=packed),
            lambda: conv3d_backward(x, g, w, packed=packed),
        )
        assert msg.startswith("packed operand (16, 3, 3, 1, 1, 4, 4, 6) is not this")

    def test_kernel_larger_than_padded_input(self):
        x, g = self.x[:, :, :, :2], self.g
        w = self.w
        msg = self.both_ways(
            lambda: reference.conv3d_backward_weights(x, g, (3, 3, 3)),
            lambda: conv3d_backward_weights(x, g, (3, 3, 3)),
            lambda: conv3d_backward(x, g, w),
        )
        assert msg == "kernel 3 larger than padded input 2 on axis 1"
        self.both_ways(
            lambda: reference.conv3d_backward_data(g, w, (6, 2, 6)),
            lambda: conv3d_backward_data(g, w, (6, 2, 6)),
        )


class TestGeometryRecord:
    def test_threads_resolving_same_and_different_geometries_agree(self):
        keys = [(1, 16, (9, 9, 9), (3, 3, 3), 1, 0)] * 4 + [
            (1, ic, (8, 7, 9), (3, 3, 3), 2, 1) for ic in (1, 4, 16, 32)
        ]
        kernels._geometry.cache_clear()
        results = [None] * len(keys)
        barrier = threading.Barrier(len(keys))

        def resolve(i):
            barrier.wait(timeout=30)
            for _ in range(50):
                results[i] = kernels._geometry(*keys[i])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=resolve, args=(i,)) for i in range(len(keys))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        kernels._geometry.cache_clear()
        for key, got in zip(keys, results):
            assert got == kernels._geometry(*key)
        assert all(r == results[0] for r in results[:4])
        assert len({r.packed_shape for r in results[4:]}) == 4

    def test_record_holds_no_arrays(self):
        def leaves(value):
            if isinstance(value, tuple):
                for v in value:
                    yield from leaves(v)
            else:
                yield value

        geo = kernels._geometry(2, 16, (8, 8, 8), (3, 3, 3), (2, 2, 2), 1)
        assert all(v is None or isinstance(v, (int, slice)) for v in leaves(geo))
        assert geo.padded_shape == (2, 16, 10, 10, 10) and geo.plan.out_shape == (4, 4, 4)

    def test_list_and_array_spellings_resolve_to_the_tuple_record(self):
        want = kernels._geometry(1, 4, (8, 8, 8), (3, 3, 3), (2, 2, 2), (1, 1, 1))
        before = kernels._geometry.cache_info().misses
        assert kernels._geometry(1, 4, [8, 8, 8], [3, 3, 3], [2, 2, 2], [1, 1, 1]) is want
        assert kernels._geometry(1, 4, (8, 8, 8), (3, 3, 3), np.array([2, 2, 2]), (1, 1, 1)) is want
        assert kernels._geometry.cache_info().misses == before
        assert kernels._geometry(1, 4, (8, 8, 8), 3, 2, 1) == want  # another spelling, equal


class TestComposedBackward:
    """The layer's backward is one kernel call per convolution, counted as
    the passes it ran."""

    def teardown_method(self):
        kernels.set_metrics(None)

    def test_gemm_counts_each_pass_once_per_conv_from_one_call(self):
        metrics = MetricsRegistry()
        kernels.set_metrics(metrics)
        x, w, g = make_case(12, 1, 16, 8, (6, 6, 6), (3, 3, 3), 1, 0)
        xt, wt = Parameter(x), Parameter(w)
        conv(wt)(xt).backward(g)
        conv(wt)(Tensor(x)).backward(g)  # no input gradient: no backward_data
        assert metrics.counter("primitives.conv3d.backward_data.calls").value == 1
        assert metrics.counter("primitives.conv3d.backward_weights.calls").value == 2
        flops = 2 * 8 * 16 * 4**3 * 27
        assert metrics.counter("primitives.conv3d.backward_data.flops").value == flops
        assert metrics.counter("primitives.conv3d.backward_weights.flops").value == 2 * flops
