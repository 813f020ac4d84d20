"""Minimal deep-learning framework (TensorFlow substitute).

The paper builds CosmoFlow "on top of the TensorFlow framework,
operating on multidimensional data arrays referred to as 'tensors'".
This subpackage provides the pieces of that framework the application
actually needs, implemented from scratch:

* :mod:`repro.tensor.layers` — layer objects (``Conv3D``, ``AvgPool3D``,
  ``Dense``, ``Flatten``, ``LeakyReLU``, ``Sequential``) that own their
  parameters and their arithmetic: each a ``forward`` and a ``backward``
  on plain arrays, which ``Sequential`` runs as a chain — what the model
  trains and predicts with, as the paper's static graph runs its
  primitives.
* :class:`repro.tensor.Tensor` — an ndarray wrapper with reverse-mode
  automatic differentiation over a dynamically recorded tape; calling a
  layer on one records a node whose backward is the layer's own.
* :mod:`repro.tensor.ops` — differentiable operations on the tape: the
  layers' ops (3D convolution, average pooling, dense, leaky ReLU,
  flatten) and elementwise ops, reductions, reshapes and losses.
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
