"""Shared finite-difference gradient checking utilities for tests."""

from __future__ import annotations

import numpy as np


def numerical_grad(f, x: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f()`` w.r.t. ``x``.

    ``f`` must read the *current* contents of ``x`` (mutated in place).
    """
    g = np.zeros(x.shape, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        fp = float(f())
        flat_x[i] = orig - eps
        fm = float(f())
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2 * eps)
    return g


def check_layer_grads(layer, x: np.ndarray, rtol=1e-4, atol=1e-5, eps=1e-4, seed=0):
    """Check a layer's ``backward`` against finite differences of its
    ``forward``, on plain arrays (no tape).

    The scalar is ``sum(forward(x) * r)`` for a fixed random ``r``, so
    ``backward(ctx, r)`` is its gradient: for ``x`` first, then for each
    of the layer's ``parameters()`` in order (their ``.data`` is perturbed
    in place, so use float64 parameters).
    """
    out, ctx = layer.forward(x, keep=True)
    r = np.random.default_rng(seed).standard_normal(out.shape)
    grads = layer.backward(ctx, r)
    arrays = [("input", x)] + [(p.name or f"param{i}", p.data) for i, p in enumerate(layer.parameters())]
    assert len(grads) == len(arrays), f"{len(grads)} gradients for {len(arrays)} arrays"
    for (name, array), got in zip(arrays, grads):
        want = numerical_grad(lambda: (layer.forward(x)[0] * r).sum(), array, eps)
        assert got.shape == array.shape, f"gradient shape for {name}"
        np.testing.assert_allclose(
            got, want, rtol=rtol, atol=atol, err_msg=f"gradient mismatch for {name}"
        )
