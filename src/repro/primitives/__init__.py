"""3D convolution and pooling primitives (MKL-DNN substitute).

The paper's Section III-C describes hand-optimized MKL-DNN kernels for
3D convolution (forward, backward-data, backward-weights) and average
pooling, built around a 16-channel blocked memory layout, SIMD
vectorization over the channel block, and loop-level threading
(Algorithm 1).

This subpackage provides one exact kernel family:

* :mod:`repro.primitives.conv3d` — the production kernels.  Each pass
  is one BLAS GEMM over an operand that unrolls the kernel's
  ``(kd, kh)`` axes and keeps whole W-rows, the same "convolution as
  matrix multiply" engine MKL-DNN ultimately drives, with NumPy's BLAS
  standing in for the AVX512 JIT kernels.  Algorithm 1 itself (the
  16-channel-blocked direct loop nest) is kept as an executable
  specification under ``tests/primitives/algorithm1_reference.py``
  that these kernels are checked against.

The layers call these kernels directly, as TensorFlow built with
``--config=mkl`` calls MKL-DNN's.  The kernels count their own passes
(calls, FLOPs, bytes) on the metrics registry
:func:`repro.primitives.conv3d.set_metrics` attaches;
:func:`get_impl` hands a caller that times them one at a time the three
passes by name.

Average pooling (:mod:`repro.primitives.pool3d`) is implemented as the
constant-weight special case of convolution, exactly as the paper
describes.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy(__name__, {
    "conv3d": ("conv3d_forward", "conv3d_backward_data", "conv3d_backward_weights",
               "conv3d_output_shape", "get_impl"),
    "pool3d": ("avg_pool3d_forward", "avg_pool3d_backward", "pool3d_output_shape"),
})
