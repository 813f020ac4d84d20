"""Differentiable operations on the tape.

Each op takes :class:`~repro.tensor.Tensor` (or array-like) inputs and
returns a taped ``Tensor``.  The network's ops (``conv3d``,
``avg_pool3d``, ``leaky_relu``, ``linear``, ``flatten``) run the layers
of :mod:`repro.tensor.layers` through their tape adapter, and
``mse_loss`` computes what the model's chain does (``losses.mse``); the
heavy numerical kernels live in :mod:`repro.primitives`.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy(__name__, {
    "elementwise": ("add", "sub", "mul", "div", "neg", "power", "exp", "log", "maximum",
                    "clip"),
    "reduce": ("sum_", "mean"),
    "shape": ("reshape", "flatten", "transpose"),
    "activations": ("leaky_relu", "relu", "sigmoid", "tanh"),
    "dense": ("matmul", "linear"),
    "conv": ("conv3d",),
    "pool": ("avg_pool3d",),
    "losses": ("mse_loss", "mae_loss"),
    "batchnorm": ("batch_norm",),
})
