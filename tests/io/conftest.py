"""Fixtures shared by the I/O tests."""

import zlib

import pytest


@pytest.fixture
def checksummed(monkeypatch):
    """The byte count of every ``zlib.crc32`` call made from here on, in
    call order: what the record layer read *and* verified."""
    sizes = []
    real_crc32 = zlib.crc32

    def crc32(data, *start):
        sizes.append(memoryview(data).nbytes)
        return real_crc32(data, *start)

    monkeypatch.setattr(zlib, "crc32", crc32)
    return sizes
