"""Tests for the one kernel family and the kernels' own metrics accounting."""

import re

import numpy as np
import pytest

from repro import primitives
from repro.obs import MetricsRegistry
from repro.primitives.conv3d import (
    conv3d_backward_data,
    conv3d_backward_weights,
    conv3d_forward,
    get_impl,
    set_metrics,
)
from repro.tensor.tensor import Tensor


@pytest.fixture(autouse=True)
def detach_metrics():
    yield
    set_metrics(None)


class TestOneFamily:
    """``direct``, ``blocked``, the layout tag and the autotuner lost every
    cell of the race (docs/architecture.md, "One kernel family") and left
    ``src/`` in PR 18, the quantized families and the name table later;
    these fail if the fork comes back."""

    @pytest.mark.parametrize("name", ["direct", "blocked", "auto"])
    def test_removed_families_are_unknown(self, name):
        with pytest.raises(TypeError):
            get_impl(name)  # no family is picked by name

    def test_tensor_carries_no_layout_tag(self):
        assert {"layout", "channels"}.isdisjoint(Tensor.__slots__)

    def test_package_exports_no_layout_or_tuner_names(self):
        pattern = re.compile("blocked|direct|layout|reorder|tun", re.IGNORECASE)
        assert [n for n in primitives.__all__ if pattern.search(n)] == []


class TestRegisterImpl:
    def test_set_metrics_invalidates_instrumented_wrappers(self):
        """Counters must land on the currently attached registry, never a
        previously attached one."""
        first = MetricsRegistry()
        set_metrics(first)
        x = np.zeros((1, 2, 3, 3, 3), dtype=np.float32)
        w = np.zeros((2, 2, 2, 2, 2), dtype=np.float32)
        conv3d_forward(x, w)
        second = MetricsRegistry()
        set_metrics(second)
        conv3d_forward(x, w)
        assert first.snapshot()["primitives.conv3d.forward.calls"] == 1
        assert second.snapshot()["primitives.conv3d.forward.calls"] == 1


class TestPerPassKernelsCountThemselves:
    def test_each_pass_called_alone_counts_one_call(self):
        metrics = MetricsRegistry()
        set_metrics(metrics)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 4, 6, 6, 6)).astype(np.float32)
        w = rng.standard_normal((8, 4, 3, 3, 3)).astype(np.float32)
        g = rng.standard_normal((2, 8, 4, 4, 4)).astype(np.float32)
        gx = conv3d_backward_data(g, w, (6, 6, 6))
        gw, gb = conv3d_backward_weights(x, g, (3, 3, 3), with_bias=True)
        flops = 2 * 2 * 8 * 4 * 4**3 * 27
        assert {k: v for k, v in metrics.snapshot().items() if "backward" in k} == {
            "primitives.conv3d.backward_data.calls": 1,
            "primitives.conv3d.backward_data.flops": flops,
            "primitives.conv3d.backward_data.bytes": g.nbytes + w.nbytes + gx.nbytes,
            "primitives.conv3d.backward_weights.calls": 1,
            "primitives.conv3d.backward_weights.flops": flops,
            "primitives.conv3d.backward_weights.bytes": x.nbytes + g.nbytes + gw.nbytes,
        }

    def test_the_pass_namespace_is_the_kernels(self):
        kernels = get_impl()
        assert kernels is primitives.get_impl()
        assert (kernels.forward, kernels.backward_data, kernels.backward_weights) == (
            conv3d_forward, conv3d_backward_data, conv3d_backward_weights
        )
