"""3D convolution and pooling primitives (MKL-DNN substitute).

The paper's Section III-C describes hand-optimized MKL-DNN kernels for
3D convolution (forward, backward-data, backward-weights) and average
pooling, built around a 16-channel blocked memory layout, SIMD
vectorization over the channel block, and loop-level threading
(Algorithm 1).

This subpackage provides one exact kernel family and its approximate
low-precision forwards:

* :mod:`repro.primitives.conv3d` — the production kernels.  Each pass
  is one BLAS GEMM over an operand that unrolls the kernel's
  ``(kd, kh)`` axes and keeps whole W-rows, the same "convolution as
  matrix multiply" engine MKL-DNN ultimately drives, with NumPy's BLAS
  standing in for the AVX512 JIT kernels.  Algorithm 1 itself (the
  16-channel-blocked direct loop nest) is kept as an executable
  specification under ``tests/primitives/algorithm1_reference.py``
  that these kernels are checked against.
* :mod:`repro.primitives.quantized` — int8/int4 packed-weight forwards
  with per-group scales.

Kernel lookup goes through :mod:`repro.primitives.registry`, a name ->
``ConvImpl`` table with optional metrics accounting.

Average pooling (:mod:`repro.primitives.pool3d`) is implemented as the
constant-weight special case of convolution, exactly as the paper
describes.
"""

from repro.primitives.conv3d import (
    conv3d_forward,
    conv3d_backward_data,
    conv3d_backward_weights,
    conv3d_output_shape,
)
from repro.primitives.pool3d import (
    avg_pool3d_forward,
    avg_pool3d_backward,
    pool3d_output_shape,
)
from repro.primitives.registry import (
    ConvImpl,
    get_impl,
    register_impl,
    set_default_impl,
    get_default_impl,
    available_impls,
)
from repro.primitives.quantized import (
    QuantizedWeights,
    quantize_groupwise,
    dequantize_groupwise,
    pack_int4,
    unpack_int4,
    quantized_matmul,
    conv3d_forward_int8,
    conv3d_forward_int4,
    QuantCache,
    default_quant_cache,
    clear_quant_cache,
    DEFAULT_GROUP_SIZE,
)

__all__ = [
    "conv3d_forward",
    "conv3d_backward_data",
    "conv3d_backward_weights",
    "conv3d_output_shape",
    "avg_pool3d_forward",
    "avg_pool3d_backward",
    "pool3d_output_shape",
    "ConvImpl",
    "get_impl",
    "register_impl",
    "set_default_impl",
    "get_default_impl",
    "available_impls",
    "QuantizedWeights",
    "quantize_groupwise",
    "dequantize_groupwise",
    "pack_int4",
    "unpack_int4",
    "quantized_matmul",
    "conv3d_forward_int8",
    "conv3d_forward_int4",
    "QuantCache",
    "default_quant_cache",
    "clear_quant_cache",
    "DEFAULT_GROUP_SIZE",
]
