"""Exact counts of what a training step derives and calls.

Counts repeat exactly, so they can gate where time cannot: on a warm step
every conv / pool geometry is looked up (zero cache misses, no
``_triple``), each convolution's backward builds one shifted gradient,
and the weight matrix is built once per conv per pass direction.
"""

import math
import threading

import numpy as np
import pytest

from repro.core.model import CosmoFlowModel
from repro.core.topology import scaled_32, tiny_16
from repro.primitives import conv3d as kernels
from repro.primitives import pool3d
from repro.tensor import Tensor
from repro.tensor.layers import AvgPool3D, Conv3D, Flatten, LeakyReLU, Sequential

COUNTED = ("_triple", "_shifted_grad", "_weight_matrix", "_pack")


@pytest.fixture
def counts(monkeypatch):
    """Call counts of the conv kernels' helpers (``_triple`` in the pool
    module too, which imports it by name), from any thread."""
    seen = dict.fromkeys(COUNTED, 0)
    lock = threading.Lock()

    def counting(name):
        real = getattr(kernels, name)

        def wrapper(*args, **kwargs):
            with lock:
                seen[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in COUNTED:
        monkeypatch.setattr(kernels, name, counting(name))
    monkeypatch.setattr(pool3d, "_triple", kernels._triple)
    return seen


def misses():
    return kernels._geometry.cache_info().misses, pool3d._geometry.cache_info().misses


def clear_caches():
    kernels._geometry.cache_clear()
    pool3d._geometry.cache_clear()


def warm_steps(step, counts, n=3):
    """One warm-up ``step()``, then ``n`` more: returns the cache misses
    the warm-up took and the per-step helper counts of the warm steps
    (asserting every warm step counts the same and misses nothing)."""
    clear_caches()
    step()
    after_warmup = misses()
    per_step = None
    for _ in range(n):
        before = dict(counts)
        step()
        delta = {k: counts[k] - before[k] for k in COUNTED}
        assert per_step in (None, delta)
        per_step = delta
    assert misses() == after_warmup
    return after_warmup, per_step


class TestPresets:
    @pytest.mark.parametrize(
        "preset, n_conv, n_pool_shapes", [(tiny_16, 3, 1), (scaled_32, 4, 2)]
    )
    def test_warm_step_derives_nothing_and_calls_each_backward_once(
        self, counts, preset, n_conv, n_pool_shapes
    ):
        config = preset()
        model = CosmoFlowModel(config, seed=0)
        rng = np.random.default_rng(0)
        x = rng.random((1, 1) + (config.input_size,) * 3, dtype=np.float32)
        y = rng.random((1, 3), dtype=np.float32)
        clear_caches()  # the model's own shape bookkeeping is not a step

        cold, per_step = warm_steps(lambda: model.loss_and_gradients(x, y), counts)
        assert cold == (n_conv, n_pool_shapes)
        assert per_step == {
            "_triple": 0,
            "_shifted_grad": n_conv,  # not 2 per conv: data and weights share it
            # forward: every conv; backward: all but conv1 (no input gradient)
            "_weight_matrix": n_conv + (n_conv - 1),
            "_pack": n_conv,  # the forward's rows, handed to the backward
        }

    def test_inference_looks_geometry_up_too(self, split_at, counts):
        """Whole (one conv call per layer) or split by sample (one per layer
        and sample, each looking up the batch-1 geometry).  Each step starts
        with a batch-1 predict, which never splits, so the batch-1 shapes are
        missed on one thread and never by both lanes at once."""
        model = CosmoFlowModel(scaled_32(), seed=0)
        x = np.random.default_rng(1).random((8, 1, 32, 32, 32), dtype=np.float32)
        for min_macs, cold_convs, conv_calls in ((math.inf, 8, 4 + 4), (0, 4, 4 + 4 * 8)):
            split_at(min_macs)
            cold, per_step = warm_steps(lambda: (model.predict(x[:1]), model.predict(x)), counts)
            assert cold == (cold_convs, 2)
            assert per_step["_triple"] == 0 and per_step["_shifted_grad"] == 0
            assert per_step["_weight_matrix"] == conv_calls


class TestStridedPaddedAndListSpelled:
    def test_same_counts_for_stride_2_padded_and_list_strides(self, counts):
        """A stride spelled as a list cannot be a cache key as given: it
        is made a tuple, then looked up — still no miss and no
        ``_triple`` on a warm step."""
        rng = np.random.default_rng(2)
        net = Sequential([
            Conv3D(2, 16, 3, stride=2, padding=1, rng=rng, name="c1"),
            LeakyReLU(name="a1"),
            Conv3D(16, 16, (3, 2, 3), stride=[1, 2, 1], padding=[1, 0, 1], rng=rng, name="c2"),
            AvgPool3D([2, 2, 2], stride=[1, 1, 1], name="p"),
            Conv3D(16, 8, 2, stride=(2, 1, 1), rng=rng, name="c3"),
            Flatten(name="f"),
        ])
        x = Tensor(rng.random((2, 2, 9, 14, 9), dtype=np.float32), requires_grad=True)

        def step():
            for p in net.parameters():
                p.zero_grad()
            y = net(x)
            y.backward(np.ones_like(y.data))

        cold, per_step = warm_steps(step, counts)
        assert cold == (3, 1)
        assert per_step == {"_triple": 0, "_shifted_grad": 3, "_weight_matrix": 6, "_pack": 3}
