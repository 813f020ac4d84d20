"""TFRecord-compatible record framing and sample encoding.

"The TFRecord file format is a simple record-oriented binary format
commonly used in TensorFlow" (paper, Section IV-C).  The on-disk
framing implemented here is the actual TFRecord framing::

    uint64  length          (little endian)
    uint32  masked_crc32(length bytes)
    bytes   payload[length]
    uint32  masked_crc32(payload)

with TensorFlow's CRC mask ``((crc >> 15 | crc << 17) + 0xa282ead8)``.
The CRC is CRC-32 (the gzip polynomial), not TFRecord's CRC-32C — the
only deviation, noted here because real TFRecord readers check it, and
kept so that every record file written so far still verifies.  It is
computed by :func:`repro.utils.checksum.crc32`: libdeflate's
carry-less-multiply kernel where ``libdeflate.so.0`` loads, zlib's
table-driven loop where it does not, with the same value either way.

The payload is a self-describing binary encoding of one training
sample: the 3D volume (float32) plus the target parameter vector.
"""

from __future__ import annotations

import ctypes
import math
import mmap
import struct
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.utils import checksum

__all__ = [
    "RecordCorruptionError",
    "RecordCorruptError",
    "masked_crc32",
    "encode_sample",
    "decode_sample",
    "sample_views",
    "RecordWriter",
    "RecordReader",
    "write_record_file",
    "read_record_file",
]

_LENGTH = struct.Struct("<Q")
_CRC = struct.Struct("<I")
#: A record's framing header: payload length, then its masked CRC.
_FRAME = struct.Struct("<QI")
#: Payload header: volume ndim + target length, then the shapes.
_MAGIC = b"CFR1"


class RecordCorruptionError(IOError):
    """A record failed its CRC or structural check."""


class RecordCorruptError(RecordCorruptionError):
    """A corrupt record, with enough context to find it on disk.

    Carries ``path`` (file), ``offset`` (byte offset of the record's
    framing header), ``record_index`` (0-based within the file), and
    ``reason`` — so an operator can locate and excise the bad record
    rather than discarding the whole 512 MB file.
    """

    def __init__(self, reason: str, path=None, offset: int = -1, record_index: int = -1):
        self.reason = reason
        self.path = Path(path) if path is not None else None
        self.offset = offset
        self.record_index = record_index
        where = f"{self.path}" if self.path is not None else "<stream>"
        if record_index >= 0:
            where += f" record {record_index}"
        if offset >= 0:
            where += f" @ byte {offset}"
        super().__init__(f"{where}: {reason}")


def _mask(crc: int) -> int:
    return ((crc >> 15) | (crc << 17) & 0xFFFFFFFF) + 0xA282EAD8 & 0xFFFFFFFF


def masked_crc32(data) -> int:
    """TFRecord's masked CRC: rotate and add the mask constant."""
    return _mask(checksum.crc32(data))


def _sample_parts(volume: np.ndarray, target: np.ndarray):
    """The buffers whose concatenation is one sample's record payload."""
    volume = np.ascontiguousarray(volume, dtype=np.float32)
    target = np.ascontiguousarray(target, dtype=np.float32)
    if volume.ndim not in (3, 4):
        raise ValueError(f"volume must be 3D or (C, D, H, W), got shape {volume.shape}")
    if target.ndim != 1:
        raise ValueError(f"target must be 1D, got shape {target.shape}")
    header = _MAGIC + struct.pack(
        f"<BB{volume.ndim}I", volume.ndim, target.shape[0], *volume.shape
    )
    return header, volume, target


def encode_sample(volume: np.ndarray, target: np.ndarray) -> bytes:
    """Serialize one (volume, target) pair to a record payload."""
    return b"".join(_sample_parts(volume, target))


def sample_views(payload) -> Tuple[np.ndarray, np.ndarray]:
    """Decode a payload without copying it.

    The arrays are read-only views of ``payload`` and keep it (and, for
    a payload from :class:`RecordReader`, the file mapping under it)
    alive; :func:`decode_sample` is the owning form.
    """
    if len(payload) < 6 or payload[:4] != _MAGIC:
        raise RecordCorruptionError("bad sample magic")
    ndim, tlen = struct.unpack_from("<BB", payload, 4)
    if ndim not in (3, 4):
        raise RecordCorruptionError(f"bad volume rank {ndim}")
    offset = 6
    shape = struct.unpack_from(f"<{ndim}I", payload, offset)
    offset += 4 * ndim
    vol_bytes = 4 * math.prod(shape)
    expected = offset + vol_bytes + 4 * tlen
    if len(payload) != expected:
        raise RecordCorruptionError(
            f"payload length {len(payload)} != expected {expected}"
        )
    volume = np.frombuffer(payload, dtype=np.float32, count=vol_bytes // 4, offset=offset)
    target = np.frombuffer(payload, dtype=np.float32, count=tlen, offset=offset + vol_bytes)
    return volume.reshape(shape), target


def decode_sample(payload) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_sample`; the arrays own their memory."""
    volume, target = sample_views(payload)
    return volume.copy(), target.copy()


class RecordWriter:
    """Write framed records to a file (context manager)."""

    def __init__(self, path):
        self.path = Path(path)
        self._fh = open(self.path, "wb")
        self.records_written = 0

    def write(self, payload: bytes) -> None:
        self._write_parts((payload,))

    def write_sample(self, volume: np.ndarray, target: np.ndarray) -> None:
        self._write_parts(_sample_parts(volume, target))

    def _write_parts(self, parts) -> None:
        """Frame one record whose payload is ``parts`` end to end: each
        goes from its own buffer to the file, with the payload CRC
        carried across them, so nothing is joined first."""
        nbytes = crc = 0
        for part in parts:
            nbytes += memoryview(part).nbytes
            crc = checksum.crc32(part, crc)
        length = _LENGTH.pack(nbytes)
        self._fh.write(length)
        self._fh.write(_CRC.pack(masked_crc32(length)))
        for part in parts:
            self._fh.write(part)
        self._fh.write(_CRC.pack(_mask(crc)))
        self.records_written += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "RecordWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RecordReader:
    """Iterate framed records from a file, verifying CRCs.

    With ``strict=True`` (default) any corruption raises
    :class:`RecordCorruptError` with file/offset/record-index context.
    With ``strict=False`` the reader *skips* corrupt records — counting
    them in ``records_skipped`` — so one flipped bit costs one sample,
    not the whole file.  A corrupt length header (or truncated tail)
    ends iteration early in non-strict mode, since the framing can no
    longer be trusted to resynchronize.
    """

    def __init__(self, path, verify: bool = True, strict: bool = True):
        self.path = Path(path)
        self.verify = verify
        self.strict = strict
        #: Corrupt records skipped (non-strict mode), cumulative.
        self.records_skipped = 0

    def _corrupt(self, reason: str, offset: int, index: int) -> RecordCorruptError:
        return RecordCorruptError(reason, path=self.path, offset=offset, record_index=index)

    def __iter__(self) -> Iterator[memoryview]:
        """Payloads as read-only slices of one mapping of the file.

        Nothing is copied: framing is parsed and payloads checksummed in
        place.  A slice keeps the mapping alive, so it stays readable
        after the reader is gone and after the file is unlinked or
        renamed over — but not if the file is rewritten in place.
        """
        with open(self.path, "rb") as fh:
            try:
                data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:  # an empty file cannot be mapped
                data = fh.read()
        view = memoryview(data)
        size = len(view)
        # The CRCs read the mapping through ctypes arrays at its address,
        # which the checksum kernel takes as they are: the address is
        # taken once per file, where a slice of ``view`` would cost a
        # NumPy view per record.  Each array is made after the bounds
        # check that covers it, and dropped while ``data`` is alive.
        base = np.frombuffer(data, np.uint8).ctypes.data

        def at(start: int, stop: int):
            return (ctypes.c_ubyte * (stop - start)).from_address(base + start)

        offset = index = 0
        while offset < size:
            body = offset + _FRAME.size
            reason = payload = None
            if size - offset < _LENGTH.size:
                reason = "truncated length header"
            elif size < body:
                reason = "truncated record"
            else:
                length, length_crc = _FRAME.unpack_from(view, offset)
                end = body + length
                if self.verify and length_crc != masked_crc32(at(offset, offset + _LENGTH.size)):
                    reason = "length CRC mismatch"
                elif size < end + _CRC.size:
                    reason = "truncated record"
                else:
                    payload = view[body:end]
                    (payload_crc,) = _CRC.unpack_from(view, end)
                    if self.verify and payload_crc != masked_crc32(at(body, end)):
                        reason = "payload CRC mismatch"
            if reason is not None:
                if self.strict:
                    raise self._corrupt(reason, offset, index)
                self.records_skipped += 1
                # A bad payload CRC leaves the framing intact — skip
                # just this record; anything else poisons the frame
                # boundaries, so stop at the last good record.
                if reason != "payload CRC mismatch":
                    return
            else:
                yield payload
            index += 1
            offset = end + _CRC.size

    def samples(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Decoded samples that own their memory."""
        for volume, target in self.views():
            yield volume.copy(), target.copy()

    def views(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Decoded samples as read-only views of the mapped file (see
        :meth:`__iter__` for how long they last): for a caller that
        copies each one where it is going, once."""
        index = 0
        for payload in self:
            try:
                yield sample_views(payload)
            except RecordCorruptionError as exc:
                if self.strict:
                    raise self._corrupt(str(exc), -1, index) from exc
                self.records_skipped += 1
            index += 1


def write_record_file(
    path, volumes: Sequence[np.ndarray], targets: Sequence[np.ndarray]
) -> int:
    """Write aligned volumes/targets to one record file; returns count."""
    if len(volumes) != len(targets):
        raise ValueError(f"{len(volumes)} volumes vs {len(targets)} targets")
    with RecordWriter(path) as writer:
        for v, t in zip(volumes, targets):
            writer.write_sample(v, t)
        return writer.records_written


def read_record_file(path) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Read every sample from a record file."""
    return list(RecordReader(path).samples())
