"""``repro.utils.checksum.crc32`` is ``zlib.crc32``, value for value.

Every test that takes the ``kernel`` fixture runs twice: once with the
libdeflate kernel (skipped, with the reason, where ``libdeflate.so.0``
does not load) and once with it monkeypatched off, where ``crc32`` is
``zlib.crc32``.  The parity table covers the buffers the program hands
the function; the rest check that what the CRC guards — record files,
checkpoints, the corrupt-record decisions — is the same under both.
"""

import ctypes
import mmap
import zipfile
import zlib

import numpy as np
import pytest

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer
from repro.core.topology import ConvSpec, CosmoFlowConfig
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.io.dataset import RecordDataset, write_dataset
from repro.io.records import RecordCorruptError, RecordReader
from repro.io.staging import StagingConfig, StagingManager
from repro.utils import checksum

NO_LIBDEFLATE = "libdeflate.so.0 did not load on this host, so crc32 is zlib.crc32"

#: 0 B, 1 B, a record's 8-byte length header, 15 B, one ``scaled_32``
#: record payload, 1 MiB.
SIZES = (0, 1, 8, 15, 131_086, 1 << 20)
STARTS = (0, 1, 0xFFFFFFFF)
KINDS = ("bytes", "bytearray", "float32", "mmap", "ctypes")


@pytest.fixture(params=["libdeflate", "zlib"])
def kernel(request, monkeypatch):
    if request.param == "libdeflate" and checksum.KERNEL != "libdeflate":
        pytest.skip(NO_LIBDEFLATE)
    if request.param == "zlib":
        monkeypatch.setattr(checksum, "_libdeflate_crc32", None)
    return request.param


@pytest.fixture(scope="module")
def blob():
    return np.random.default_rng(0).integers(0, 256, (1 << 20) + 1, dtype=np.uint8).tobytes()


@pytest.fixture(scope="module")
def mapped(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("checksum") / "blob.bin"
    path.write_bytes(blob)
    with open(path, "rb") as fh:
        mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    yield mapping
    mapping.close()


def buffer_of(kind, size, blob, mapped):
    if kind == "bytes":
        return blob[:size]
    if kind == "bytearray":
        return bytearray(blob[:size])
    if kind == "float32":  # whole floats only: size rounded down to 4 B
        return np.frombuffer(blob, np.float32, count=size // 4).copy()
    # A read-only mapping at an odd offset: as a memoryview slice (what
    # RecordReader yields), and as the ctypes array its CRCs are taken on.
    if kind == "mmap":
        return memoryview(mapped)[1 : 1 + size]
    address = np.frombuffer(mapped, np.uint8).ctypes.data + 1
    return (ctypes.c_ubyte * size).from_address(address)


class TestParity:
    @pytest.mark.parametrize("start", STARTS)
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_zlib(self, kernel, blob, mapped, kind, size, start):
        data = buffer_of(kind, size, blob, mapped)
        assert checksum.crc32(data, start) == zlib.crc32(data, start)

    def test_chains_like_zlib(self, kernel, blob):
        crc = 0
        for part in (blob[:8], np.frombuffer(blob, np.float32, count=1000), blob[8:15]):
            crc = checksum.crc32(part, crc)
        assert crc == zlib.crc32(blob[:8] + blob[:4000] + blob[8:15])

    def test_rejects_what_zlib_rejects(self, kernel):
        strided = np.zeros((4, 4), np.float32)[:, ::2]
        with pytest.raises(ValueError):
            zlib.crc32(strided)
        with pytest.raises(ValueError):
            checksum.crc32(strided)

    def test_kernel_names_the_one_that_loaded(self):
        loaded = checksum._libdeflate_crc32 is not None
        assert checksum.KERNEL == ("libdeflate" if loaded else "zlib")


MICRO = CosmoFlowConfig(
    name="micro4crc", input_size=4, conv_layers=(ConvSpec(4, 2),), fc_sizes=(8,), n_outputs=3
)


def samples(n=12):
    rng = np.random.default_rng(3)
    return (
        rng.standard_normal((n, 1, 8, 8, 8)).astype(np.float32),
        rng.random((n, 3)).astype(np.float32),
    )


def npz_members(path):
    """A checkpoint's content: each member's bytes (a zip entry's header
    carries the second it was written, which two saves need not share)."""
    with zipfile.ZipFile(path) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


@pytest.mark.skipif(checksum.KERNEL != "libdeflate", reason=NO_LIBDEFLATE)
class TestSameFilesWithoutTheKernel:
    def test_record_files(self, tmp_path, monkeypatch):
        vols, tgts = samples()
        fast = write_dataset(tmp_path / "libdeflate", vols, tgts, samples_per_file=4)
        monkeypatch.setattr(checksum, "_libdeflate_crc32", None)
        slow = write_dataset(tmp_path / "zlib", vols, tgts, samples_per_file=4)
        assert [p.read_bytes() for p in fast] == [p.read_bytes() for p in slow]

    def test_checkpoint_files_and_either_loads_under_the_other(self, tmp_path, monkeypatch):
        model = CosmoFlowModel(MICRO, seed=0)
        opt = CosmoFlowOptimizer(model.parameter_arrays())
        fast = save_checkpoint(tmp_path / "libdeflate", model, opt)
        monkeypatch.setattr(checksum, "_libdeflate_crc32", None)
        slow = save_checkpoint(tmp_path / "zlib", model, opt)
        assert npz_members(fast) == npz_members(slow)
        load_checkpoint(fast, CosmoFlowModel(MICRO, seed=1))  # verifies the CRC under zlib
        monkeypatch.undo()
        load_checkpoint(slow, CosmoFlowModel(MICRO, seed=1))


class TestCorruptRecords:
    """``RECORD_CORRUPT`` decisions do not depend on the kernel."""

    @pytest.fixture()
    def paths(self, tmp_path):
        vols, tgts = samples()
        return write_dataset(tmp_path / "src", vols, tgts, samples_per_file=4)

    def corrupt(self, path, record):
        plan = FaultPlan(events=[FaultEvent(FaultKind.RECORD_CORRUPT, step=record)])
        assert FaultInjector(plan).corrupt_record_file(path) == 1

    def test_strict_raises(self, kernel, paths):
        self.corrupt(paths[1], 2)
        with pytest.raises(RecordCorruptError) as caught:
            RecordDataset(paths)
        assert (caught.value.path, caught.value.record_index) == (paths[1], 2)
        assert caught.value.reason == "payload CRC mismatch"

    def test_a_bad_length_header_ends_the_file(self, kernel, paths):
        data = bytearray(paths[0].read_bytes())
        data[0] ^= 0x01
        paths[0].write_bytes(bytes(data))
        with pytest.raises(RecordCorruptError, match="length CRC mismatch"):
            list(RecordReader(paths[0]))
        reader = RecordReader(paths[0], strict=False)
        assert list(reader) == [] and reader.records_skipped == 1

    def test_nonstrict_skips_and_counts(self, kernel, paths):
        self.corrupt(paths[1], 2)
        ds = RecordDataset(paths, strict=False)
        assert len(ds) == 11
        assert sum(len(x) for x, _ in ds.batches(4, rng=0, shuffle=False)) == 11

    def test_corrupt_staged_copy_is_quarantined_restaged_and_read(self, kernel, tmp_path, paths):
        manager = StagingManager(tmp_path / "bb", config=StagingConfig(), seed=7)
        manager.stage_all(paths)
        self.corrupt(manager._staged[paths[0]].path, 1)
        staged = RecordDataset(paths, staging=manager).to_arrays()
        direct = RecordDataset(paths).to_arrays()
        np.testing.assert_array_equal(staged[0], direct[0])
        assert manager.stats.quarantined == manager.stats.restages == 1
