"""Differentiable operations.

Each op takes :class:`~repro.tensor.Tensor` (or array-like) inputs and
returns a taped ``Tensor``.  The heavy numerical kernels live in
:mod:`repro.primitives`; these modules only add the autograd plumbing,
the same division of labor as TensorFlow-over-MKL-DNN in the paper.
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
