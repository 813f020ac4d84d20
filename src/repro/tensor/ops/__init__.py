"""Differentiable operations.

Each op takes :class:`~repro.tensor.Tensor` (or array-like) inputs and
returns a taped ``Tensor``.  The heavy numerical kernels live in
:mod:`repro.primitives`; these modules only add the autograd plumbing,
the same division of labor as TensorFlow-over-MKL-DNN in the paper.
"""

from repro.tensor.ops.elementwise import add, sub, mul, div, neg, power, exp, log, maximum, clip
from repro.tensor.ops.reduce import sum_, mean
from repro.tensor.ops.reshape import reshape, flatten, transpose
from repro.tensor.ops.activations import leaky_relu, relu, sigmoid, tanh
from repro.tensor.ops.dense import matmul, linear
from repro.tensor.ops.conv import conv3d
from repro.tensor.ops.pool import avg_pool3d
from repro.tensor.ops.losses import mse_loss, mae_loss
from repro.tensor.ops.batchnorm import batch_norm

__all__ = [
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "power",
    "exp",
    "log",
    "maximum",
    "clip",
    "sum_",
    "mean",
    "reshape",
    "flatten",
    "transpose",
    "leaky_relu",
    "relu",
    "sigmoid",
    "tanh",
    "matmul",
    "linear",
    "conv3d",
    "avg_pool3d",
    "mse_loss",
    "mae_loss",
    "batch_norm",
]
