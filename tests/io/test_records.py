"""Tests for the TFRecord-style framing and sample encoding."""

import io
import mmap
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.records import (
    RecordCorruptError,
    RecordCorruptionError,
    RecordReader,
    RecordWriter,
    decode_sample,
    encode_sample,
    masked_crc32,
    read_record_file,
    write_record_file,
)


def sample(seed=0, size=4, n_params=3):
    rng = np.random.default_rng(seed)
    vol = rng.standard_normal((size, size, size)).astype(np.float32)
    tgt = rng.random(n_params).astype(np.float32)
    return vol, tgt


class TestMaskedCRC:
    def test_deterministic(self):
        assert masked_crc32(b"hello") == masked_crc32(b"hello")

    def test_sensitive_to_content(self):
        assert masked_crc32(b"hello") != masked_crc32(b"hellp")

    def test_uint32_range(self):
        for data in (b"", b"x", b"a" * 1000):
            assert 0 <= masked_crc32(data) < 2**32


class TestSampleEncoding:
    def test_round_trip_3d(self):
        vol, tgt = sample()
        v2, t2 = decode_sample(encode_sample(vol, tgt))
        np.testing.assert_array_equal(v2, vol)
        np.testing.assert_array_equal(t2, tgt)

    def test_round_trip_4d(self):
        vol = np.random.default_rng(1).standard_normal((2, 3, 3, 3)).astype(np.float32)
        tgt = np.array([0.5], dtype=np.float32)
        v2, t2 = decode_sample(encode_sample(vol, tgt))
        np.testing.assert_array_equal(v2, vol)

    def test_dtype_coerced(self):
        vol = np.zeros((2, 2, 2), dtype=np.float64)
        tgt = np.zeros(3, dtype=np.float64)
        v2, t2 = decode_sample(encode_sample(vol, tgt))
        assert v2.dtype == np.float32 and t2.dtype == np.float32

    def test_bad_volume_rank(self):
        with pytest.raises(ValueError):
            encode_sample(np.zeros((2, 2)), np.zeros(3))

    def test_bad_target_rank(self):
        with pytest.raises(ValueError):
            encode_sample(np.zeros((2, 2, 2)), np.zeros((3, 1)))

    def test_bad_magic(self):
        with pytest.raises(RecordCorruptionError):
            decode_sample(b"XXXX" + b"\x00" * 20)

    def test_truncated_payload(self):
        payload = encode_sample(*sample())
        with pytest.raises(RecordCorruptionError):
            decode_sample(payload[:-4])

    @given(
        size=st.integers(min_value=1, max_value=8),
        n_params=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_round_trip(self, size, n_params, seed):
        vol, tgt = sample(seed, size, n_params)
        v2, t2 = decode_sample(encode_sample(vol, tgt))
        np.testing.assert_array_equal(v2, vol)
        np.testing.assert_array_equal(t2, tgt)


class TestRecordFiles:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "test.rec"
        vols = [sample(i)[0] for i in range(5)]
        tgts = [sample(i)[1] for i in range(5)]
        assert write_record_file(path, vols, tgts) == 5
        out = read_record_file(path)
        assert len(out) == 5
        for (v, t), vo, to in zip(out, vols, tgts):
            np.testing.assert_array_equal(v, vo)
            np.testing.assert_array_equal(t, to)

    def test_empty_file_iterates_empty(self, tmp_path):
        path = tmp_path / "empty.rec"
        with RecordWriter(path):
            pass
        assert read_record_file(path) == []

    def test_mismatched_lengths_raise(self, tmp_path):
        with pytest.raises(ValueError):
            write_record_file(tmp_path / "x.rec", [np.zeros((2, 2, 2))], [])

    def test_corrupted_payload_detected(self, tmp_path):
        path = tmp_path / "corrupt.rec"
        write_record_file(path, [sample()[0]], [sample()[1]])
        data = bytearray(path.read_bytes())
        data[30] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(data))
        with pytest.raises(RecordCorruptionError, match="CRC"):
            read_record_file(path)

    def test_corrupted_length_detected(self, tmp_path):
        path = tmp_path / "corrupt2.rec"
        write_record_file(path, [sample()[0]], [sample()[1]])
        data = bytearray(path.read_bytes())
        data[0] ^= 0x01  # flip a length byte
        path.write_bytes(bytes(data))
        with pytest.raises(RecordCorruptionError):
            read_record_file(path)

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "trunc.rec"
        write_record_file(path, [sample()[0]], [sample()[1]])
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(RecordCorruptionError, match="truncated"):
            read_record_file(path)

    def test_verification_can_be_disabled(self, tmp_path):
        path = tmp_path / "noverify.rec"
        write_record_file(path, [sample()[0]], [sample()[1]])
        data = bytearray(path.read_bytes())
        # corrupt the payload CRC itself (not the payload)
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert len(list(RecordReader(path, verify=False))) == 1
        with pytest.raises(RecordCorruptionError):
            list(RecordReader(path, verify=True))

    def test_framing_layout(self, tmp_path):
        """First 8 bytes are the little-endian payload length."""
        path = tmp_path / "layout.rec"
        payload = encode_sample(*sample())
        with RecordWriter(path) as w:
            w.write(payload)
        raw = path.read_bytes()
        (length,) = struct.unpack("<Q", raw[:8])
        assert length == len(payload)
        assert len(raw) == 8 + 4 + length + 4

    def test_writer_context_manager_closes(self, tmp_path):
        path = tmp_path / "cm.rec"
        with RecordWriter(path) as w:
            w.write_sample(*sample())
        assert w._fh.closed
        assert w.records_written == 1


class TestCorruptionEdges:
    """Byte-level failure modes the staging tier must be able to detect:
    every distinct way a record file can go bad on a storage tier maps
    to :class:`RecordCorruptionError`, never to garbage data."""

    def write_one(self, tmp_path):
        path = tmp_path / "edge.rec"
        write_record_file(path, [sample()[0]], [sample()[1]])
        return path, path.read_bytes()

    def test_truncated_mid_length_header(self, tmp_path):
        path, raw = self.write_one(tmp_path)
        path.write_bytes(raw[:4])  # half of the 8-byte length field
        with pytest.raises(RecordCorruptionError, match="truncated"):
            read_record_file(path)

    def test_truncated_mid_length_crc(self, tmp_path):
        path, raw = self.write_one(tmp_path)
        path.write_bytes(raw[:10])  # length intact, CRC cut short
        with pytest.raises(RecordCorruptionError, match="truncated"):
            read_record_file(path)

    def test_truncated_mid_payload(self, tmp_path):
        path, raw = self.write_one(tmp_path)
        (length,) = struct.unpack("<Q", raw[:8])
        path.write_bytes(raw[: 12 + length // 2])
        with pytest.raises(RecordCorruptionError, match="truncated"):
            read_record_file(path)

    def test_flipped_length_crc_byte(self, tmp_path):
        path, raw = self.write_one(tmp_path)
        data = bytearray(raw)
        data[9] ^= 0x40  # inside the masked length-CRC field (bytes 8-11)
        path.write_bytes(bytes(data))
        with pytest.raises(RecordCorruptionError, match="CRC"):
            read_record_file(path)

    def test_flipped_payload_crc_byte(self, tmp_path):
        path, raw = self.write_one(tmp_path)
        data = bytearray(raw)
        data[-2] ^= 0x40  # inside the trailing masked payload-CRC field
        path.write_bytes(bytes(data))
        with pytest.raises(RecordCorruptionError, match="CRC"):
            read_record_file(path)

    def test_second_record_corrupt_first_still_read(self, tmp_path):
        path = tmp_path / "two.rec"
        write_record_file(
            path, [sample(0)[0], sample(1)[0]], [sample(0)[1], sample(1)[1]]
        )
        raw = bytearray(path.read_bytes())
        (length,) = struct.unpack("<Q", raw[:8])
        raw[16 + length + 20] ^= 0xFF  # a payload byte of record 2
        path.write_bytes(bytes(raw))
        reader = RecordReader(path)
        first = next(iter(reader))
        np.testing.assert_array_equal(decode_sample(first)[0], sample(0)[0])
        with pytest.raises(RecordCorruptionError):
            list(RecordReader(path))


def reference_payloads(path, verify=True, strict=True):
    """The stream parser ``RecordReader.__iter__`` had before it parsed
    a mapping in place, kept as the reference for the one that does:
    one buffered ``read`` per framing field, payloads copied out."""
    length_s, crc_s = struct.Struct("<Q"), struct.Struct("<I")
    skipped = 0
    payloads = []
    with open(path, "rb") as fh:
        index = 0
        while True:
            offset = fh.tell()
            header = fh.read(length_s.size)
            if not header:
                return payloads, skipped, None
            reason = None
            if len(header) != length_s.size:
                reason = "truncated length header"
            else:
                (length,) = length_s.unpack(header)
                len_crc_bytes = fh.read(crc_s.size)
                if len(len_crc_bytes) != crc_s.size:
                    reason = "truncated record"
                elif verify and crc_s.unpack(len_crc_bytes)[0] != masked_crc32(header):
                    reason = "length CRC mismatch"
                else:
                    payload = fh.read(length)
                    crc_bytes = fh.read(crc_s.size)
                    if len(payload) != length or len(crc_bytes) != crc_s.size:
                        reason = "truncated record"
                    elif verify and crc_s.unpack(crc_bytes)[0] != masked_crc32(payload):
                        reason = "payload CRC mismatch"
            if reason is not None:
                if strict:
                    return payloads, skipped, (reason, offset, index)
                skipped += 1
                if "payload CRC" in reason:
                    index += 1
                    continue
                return payloads, skipped, None
            payloads.append(payload)
            index += 1


def observed_payloads(path, verify, strict):
    """What ``RecordReader`` does with the same file, in the same terms."""
    reader = RecordReader(path, verify=verify, strict=strict)
    payloads, error = [], None
    try:
        for payload in reader:
            payloads.append(bytes(payload))
    except RecordCorruptError as exc:
        assert exc.path == path
        error = (exc.reason, exc.offset, exc.record_index)
    return payloads, reader.records_skipped, error


class TestReaderEquivalence:
    """The in-place parser against the stream parser it replaced."""

    @given(
        payloads=st.lists(st.binary(max_size=12), min_size=1, max_size=3),
        flip=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_flip_and_every_truncation(self, tmp_path_factory, payloads, flip):
        path = tmp_path_factory.mktemp("equiv") / "f.rec"
        with RecordWriter(path) as writer:
            for payload in payloads:
                writer.write(payload)
        raw = path.read_bytes()
        assert observed_payloads(path, True, True) == (payloads, 0, None)
        # One flipped byte at every position: each length, length-CRC,
        # payload and payload-CRC byte of every record.
        for position in range(len(raw)):
            damaged = bytearray(raw)
            damaged[position] ^= flip
            path.write_bytes(damaged)
            for strict in (True, False):
                expected = reference_payloads(path, strict=strict)
                assert observed_payloads(path, True, strict) == expected
                assert expected != (payloads, 0, None)  # the flip was noticed
        # Truncation at every length, the empty file included; without
        # verification too, where only the lengths say a record is short.
        for size in range(len(raw)):
            path.write_bytes(raw[:size])
            for verify in (True, False):
                for strict in (True, False):
                    expected = reference_payloads(path, verify=verify, strict=strict)
                    assert observed_payloads(path, verify, strict) == expected

    def test_empty_file_is_read_not_mapped(self, tmp_path):
        path = tmp_path / "empty.rec"
        path.touch()
        with open(path, "rb") as fh, pytest.raises(ValueError):
            mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        for strict in (True, False):
            assert observed_payloads(path, True, strict) == ([], 0, None)


class TestWritePath:
    """``write_sample`` sends header and array buffers straight to the
    file; the bytes must be the ones the joined payload gave."""

    @staticmethod
    def reference_encode(volume, target):
        """``encode_sample`` as it was: BytesIO + ``tobytes`` + ``getvalue``."""
        volume = np.ascontiguousarray(volume, dtype=np.float32)
        target = np.ascontiguousarray(target, dtype=np.float32)
        buf = io.BytesIO()
        buf.write(b"CFR1")
        buf.write(struct.pack("<BB", volume.ndim, target.shape[0]))
        buf.write(struct.pack(f"<{volume.ndim}I", *volume.shape))
        buf.write(volume.tobytes())
        buf.write(target.tobytes())
        return buf.getvalue()

    def cases(self):
        rng = np.random.default_rng(5)
        yield sample(1)
        yield rng.standard_normal((2, 3, 4, 5)).astype(np.float32), rng.random(4).astype(np.float32)
        # not contiguous, not float32, and an empty target
        yield rng.standard_normal((6, 6, 6))[::2, :, ::3], rng.random(8)[::2]
        yield np.zeros((1, 1, 1)), np.zeros(0)

    def test_encode_sample_bytes_unchanged(self):
        for volume, target in self.cases():
            assert encode_sample(volume, target) == self.reference_encode(volume, target)

    def test_write_sample_file_is_write_of_encoded_payload(self, tmp_path):
        direct, joined = tmp_path / "direct.rec", tmp_path / "joined.rec"
        with RecordWriter(direct) as a, RecordWriter(joined) as b:
            for volume, target in self.cases():
                a.write_sample(volume, target)
                b.write(self.reference_encode(volume, target))
        assert direct.read_bytes() == joined.read_bytes()
        for (v, t), (volume, target) in zip(read_record_file(direct), self.cases()):
            np.testing.assert_array_equal(v, volume.astype(np.float32))
            np.testing.assert_array_equal(t, target.astype(np.float32))


class TestOwnership:
    """Decoded arrays belong to the caller: writable, aliasing neither
    each other nor the file, and alive after reader and file are gone."""

    def test_decode_sample_owns_its_arrays(self):
        payload = encode_sample(*sample(3))
        v, t = decode_sample(payload)
        v2, _ = decode_sample(payload)
        assert v.flags.writeable and v.flags.owndata and t.flags.writeable and t.flags.owndata
        v += 1.0
        np.testing.assert_array_equal(v2, sample(3)[0])
        assert payload == encode_sample(*sample(3))

    def test_read_record_file_outlives_reader_and_file(self, tmp_path):
        path = tmp_path / "own.rec"
        write_record_file(path, [sample(i)[0] for i in range(3)], [sample(i)[1] for i in range(3)])
        raw = path.read_bytes()
        out = read_record_file(path)
        again = read_record_file(path)
        for v, t in out:
            assert v.flags.writeable and v.flags.owndata
            assert t.flags.writeable and t.flags.owndata
            v[...] = -1.0
            t[...] = -1.0
        assert path.read_bytes() == raw  # writes went to the copies
        path.write_bytes(b"\0" * len(raw))  # in place: a mapping would see this
        path.unlink()
        for i, (v, t) in enumerate(again):
            np.testing.assert_array_equal(v, sample(i)[0])
            np.testing.assert_array_equal(t, sample(i)[1])
        assert all((v == -1.0).all() for v, _ in out)

    def test_reader_views_are_read_only_and_survive_unlink(self, tmp_path):
        path = tmp_path / "views.rec"
        write_record_file(path, [sample(0)[0], sample(1)[0]], [sample(0)[1], sample(1)[1]])
        views = list(RecordReader(path).views())
        path.unlink()
        for i, (v, t) in enumerate(views):
            assert not v.flags.writeable and not v.flags.owndata
            np.testing.assert_array_equal(v, sample(i)[0])
            np.testing.assert_array_equal(t, sample(i)[1])
