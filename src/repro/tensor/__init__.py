"""Minimal deep-learning framework (TensorFlow substitute).

The paper builds CosmoFlow "on top of the TensorFlow framework,
operating on multidimensional data arrays referred to as 'tensors'".
This subpackage provides the pieces of that framework the application
actually needs, implemented from scratch:

* :class:`repro.tensor.Tensor` — an ndarray wrapper with reverse-mode
  automatic differentiation over a dynamically recorded tape.
* :mod:`repro.tensor.ops` — differentiable operations: 3D convolution
  (dispatching to :mod:`repro.primitives`), average pooling, dense
  matmul, leaky ReLU and friends, reductions, reshapes, and losses.
* :mod:`repro.tensor.layers` — layer objects (``Conv3D``, ``AvgPool3D``,
  ``Dense``, ``Flatten``, ``LeakyReLU``, ``Sequential``) that own
  parameters, mirroring how the TensorFlow graph is assembled.
* :mod:`repro.tensor.initializers` — weight initializers.

Everything is float32 by default, matching the paper ("both the input
dataset and the weights use 32-bit single precision floating point
format").
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy(__name__, {
    "tensor": ("Tensor", "Parameter", "no_grad"),
    "ops": None,
    "layers": ("Layer", "Conv3D", "AvgPool3D", "Dense", "Flatten", "LeakyReLU", "BatchNorm",
               "Sequential"),
    "initializers": None,
})
