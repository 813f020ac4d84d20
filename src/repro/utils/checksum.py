"""The one CRC-32 every checksum in the program goes through.

Record framing (:mod:`repro.io.records`), checkpoint payloads
(:mod:`repro.core.checkpoint`), the elastic group's wire and resync
payloads (:mod:`repro.comm`) and the burst buffer's file placement
(:mod:`repro.io.staging`) all call :func:`crc32` — through this
module's attribute, so one monkeypatch sees every call.

The value is ``zlib.crc32``'s (the gzip polynomial, the same chaining
through ``crc``), so every stored checksum is unchanged.  It is computed
by libdeflate's carry-less-multiply kernel when ``libdeflate.so.0``
loads (7-9x zlib's table-driven loop on 131 kB to 1 MiB buffers on an
x86-64 Xeon), and by ``zlib.crc32`` when it does not.  ``ctypes``
releases the GIL for the call, as zlib does for large buffers, so
reader threads still overlap.
"""

from __future__ import annotations

import ctypes
import zlib

import numpy as np

__all__ = ["KERNEL", "crc32"]


def _load_libdeflate():
    """``libdeflate_crc32``, bound by soname (no ``find_library``, which
    runs a subprocess), or ``None`` when the library is not there."""
    try:
        fn = ctypes.CDLL("libdeflate.so.0").libdeflate_crc32
    except (OSError, AttributeError):
        return None
    fn.argtypes = (ctypes.c_uint32, ctypes.c_void_p, ctypes.c_size_t)
    fn.restype = ctypes.c_uint32
    return fn


_libdeflate_crc32 = _load_libdeflate()

#: The kernel behind :func:`crc32`: ``"libdeflate"`` or ``"zlib"``.
KERNEL = "zlib" if _libdeflate_crc32 is None else "libdeflate"


def crc32(data, crc: int = 0) -> int:
    """``zlib.crc32(data, crc)`` over any C-contiguous buffer, uncopied.

    Like zlib, a buffer that is not C-contiguous raises ``ValueError``.
    """
    if _libdeflate_crc32 is None:
        return zlib.crc32(data, crc)
    if isinstance(data, ctypes.Array):  # ctypes passes its own storage
        return _libdeflate_crc32(crc, data, ctypes.sizeof(data))
    # Any other buffer, read-only ones (an mmap slice) included: its
    # uint8 view has an address, and is not a copy.
    view = np.frombuffer(data, np.uint8)
    return _libdeflate_crc32(crc, view.ctypes.data, view.size)
