"""Algorithm 1 of the paper (Section III-C), as an executable specification.

The MKL-DNN forward kernel the paper describes works on channel-blocked
arrays — ``SRC`` in R^{ICB x ID x IH x IW x 16}, ``DST`` in
R^{OCB x OD x OH x OW x 16}, ``W`` in R^{OCB x ICB x KD x KH x KW x 16 x 16}
— with a loop nest over output and input channel blocks, kernel offsets
and 28-voxel blocks of the output width; the innermost 28 x 16 x 16
product is what the authors unroll into AVX512 instructions.  This file
is that loop nest with the inner product as one ``@``, forward only,
valid convolution at stride 1 (every CosmoFlow layer).

It lives under ``tests/`` because it is a specification, not a kernel:
raced per preset, layer and pass against the one-GEMM-per-pass kernels
of ``repro.primitives.conv3d``, the blocked loop nest lost 56 of 56
cells (table in ``docs/architecture.md``, "One kernel family"), so
``src/`` runs only the GEMM formulation and
``test_conv3d.py::TestOneGemmPerPass`` holds it to this one at the fp32
summation-order tolerance.  Nothing here is imported by ``src/``.
"""

from __future__ import annotations

import numpy as np

#: Channels per block: the 16 fp32 lanes of one AVX512 register.
BLOCK = 16
#: "We block the output width dimension by 28 voxels": 28 accumulators
#: plus the weight and source registers fill the 32 AVX512 registers.
WIDTH_BLOCK = 28


def _pad_to_block(a: np.ndarray, axis: int) -> np.ndarray:
    """Zero-pad ``axis`` to a whole number of 16-channel blocks (the
    ragged last block; conv1's single input channel is 1 of 16 lanes)."""
    pad = [(0, 0)] * a.ndim
    pad[axis] = (0, -a.shape[axis] % BLOCK)
    return np.pad(a, pad)


def algorithm1_forward(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """``(N, IC, D, H, W)`` x ``(OC, IC, KD, KH, KW)`` -> ``(N, OC, OD, OH, OW)``."""
    n = x.shape[0]
    oc, kd, kh, kw = w.shape[0], *w.shape[2:]
    od, oh, ow = (i - k + 1 for i, k in zip(x.shape[2:], (kd, kh, kw)))

    # nCdhw16c: (N, ICB, ID, IH, IW, 16)
    src = _pad_to_block(x.astype(np.float32), 1)
    icb_n = src.shape[1] // BLOCK
    src = np.moveaxis(src.reshape(n, icb_n, BLOCK, *x.shape[2:]), 2, -1)
    # OIdhw16i16o: (OCB, ICB, KD, KH, KW, 16 in, 16 out)
    wb = _pad_to_block(_pad_to_block(w.astype(np.float32), 0), 1)
    ocb_n = wb.shape[0] // BLOCK
    wb = wb.reshape(ocb_n, BLOCK, icb_n, BLOCK, kd, kh, kw).transpose(0, 2, 4, 5, 6, 3, 1)

    dst = np.zeros((n, ocb_n, od, oh, ow, BLOCK), dtype=np.float32)
    for ocb in range(ocb_n):  # output channel block
        for icb in range(icb_n):  # input channel block
            for zd in range(kd):  # kernel offsets
                for zh in range(kh):
                    for zw in range(kw):
                        for w0 in range(0, ow, WIDTH_BLOCK):  # 28 output voxels
                            w1 = min(w0 + WIDTH_BLOCK, ow)
                            s = src[:, icb, zd : zd + od, zh : zh + oh, zw + w0 : zw + w1, :]
                            # the 28 x 16 x 16 microkernel, every (n, od, oh) row at once
                            dst[:, ocb, :, :, w0:w1, :] += s @ wb[ocb, icb, zd, zh, zw]

    out = np.moveaxis(dst, -1, 2).reshape(n, ocb_n * BLOCK, od, oh, ow)[:, :oc]
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1, 1).astype(np.float32)
    return np.ascontiguousarray(out)
