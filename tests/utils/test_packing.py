"""Unit tests for the shared flatten/unflatten gradient packing."""

import numpy as np
import pytest

from repro.utils.packing import flatten_arrays, unflatten_arrays, unflatten_like


def _tensors():
    rng = np.random.default_rng(3)
    return [
        rng.standard_normal((2, 3, 4)).astype(np.float32),
        rng.standard_normal((5,)).astype(np.float32),
        rng.standard_normal((1, 7)).astype(np.float32),
    ]


class TestFlatten:
    def test_concatenates_in_order(self):
        arrays = _tensors()
        flat = flatten_arrays(arrays)
        assert flat.ndim == 1
        assert flat.size == sum(a.size for a in arrays)
        expected = np.concatenate([a.ravel() for a in arrays])
        np.testing.assert_array_equal(flat, expected)

    def test_single_array_is_ravel(self):
        a = _tensors()[0]
        flat = flatten_arrays([a])
        np.testing.assert_array_equal(flat, a.ravel())
        # Contiguous single input must not be copied (hot path).
        assert flat.base is a or np.shares_memory(flat, a)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            flatten_arrays([])

    def test_accepts_lists(self):
        flat = flatten_arrays([[1.0, 2.0], [3.0]])
        np.testing.assert_array_equal(flat, [1.0, 2.0, 3.0])


class TestUnflatten:
    def test_round_trip_is_bitwise_lossless(self):
        arrays = _tensors()
        out = unflatten_arrays(flatten_arrays(arrays), [a.shape for a in arrays])
        assert len(out) == len(arrays)
        for got, want in zip(out, arrays):
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_unflatten_like_uses_template_shapes(self):
        arrays = _tensors()
        out = unflatten_like(flatten_arrays(arrays), arrays)
        for got, want in zip(out, arrays):
            np.testing.assert_array_equal(got, want)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="account for"):
            unflatten_arrays(np.zeros(10), [(3,), (3,)])
        with pytest.raises(ValueError, match="too small"):
            unflatten_arrays(np.zeros(4), [(3,), (3,)])

    def test_non_1d_buffer_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            unflatten_arrays(np.zeros((2, 3)), [(6,)])
