"""Suite-wide set-up: one BLAS thread, no rank or helper thread outlives
the test that started it, and the checksum probe the I/O tests share."""

import os

# Before NumPy is imported: with two BLAS threads a small VM stalls any
# threaded GEMM by 8-24 ms at random, and tests that time things flake.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import threading  # noqa: E402
import time  # noqa: E402

import pytest  # noqa: E402

from repro.utils import checksum, cores  # noqa: E402

try:
    from hypothesis import settings
except ImportError:  # a CI job that runs no property test need not install it
    pass
else:
    # Property tests and state machines that set no budget of their own:
    # ``tier1`` keeps them to seconds; ``--hypothesis-profile=slow`` (CI's
    # fault-injection job) searches far longer.
    settings.register_profile("tier1", deadline=None, stateful_step_count=20)
    settings.register_profile("slow", deadline=None, max_examples=2000, stateful_step_count=100)
    settings.load_profile("tier1")


#: Thread names of ``ThreadedGroup`` ranks (``rank-2``, ``rank-2.1`` once
#: readmitted); the helper a large convolution or a batched prediction runs
#: beside itself (``repro.utils.cores.beside_helper``) is joined before the
#: call returns.
RANK_THREAD_PREFIX = "rank-"
#: Longer than any stall a test injects into a rank it then abandons
#: (an evicted straggler sleeps out its 2 s hang before it unwinds).
JOIN_TIMEOUT_S = 5.0


def join_rank_threads(timeout_s: float = JOIN_TIMEOUT_S):
    """Join every live rank thread, ``timeout_s`` in total; returns the
    names of those still alive afterwards."""
    deadline = time.monotonic() + timeout_s
    alive = []
    for t in threading.enumerate():
        if t.name.startswith(RANK_THREAD_PREFIX):
            t.join(max(0.0, deadline - time.monotonic()))
            if t.is_alive():
                alive.append(t.name)
    return alive


@pytest.fixture(autouse=True)
def no_program_thread_outlives_its_test():
    """A rank or helper thread left running bleeds into whatever runs next
    (the benchmark's calibration tick refuses to start beside one), so the
    test that left it is the one that fails.  Rank threads may still be
    unwinding and get ``JOIN_TIMEOUT_S``; a helper is joined by the call
    that started it, so one seen once the ranks are gone has leaked."""
    yield
    alive = join_rank_threads()
    if alive:
        pytest.fail(f"rank thread(s) {alive} still alive {JOIN_TIMEOUT_S}s after the test")
    helpers = [t for t in threading.enumerate() if t.name == cores.HELPER_THREAD_NAME]
    for t in helpers:
        t.join(JOIN_TIMEOUT_S)
    if helpers:
        pytest.fail(f"{len(helpers)} {cores.HELPER_THREAD_NAME} thread(s) outlived the call that started them")


@pytest.fixture
def split_at(monkeypatch):
    """Set the fewest multiply-adds a helper thread must take over
    (``repro.utils.cores._HELPER_MIN_MACS``), and whether it finds a core
    of its own (which the BLAS, the CPUs and the live threads decide
    otherwise)."""

    def set_to(value, spare_core=True):
        monkeypatch.setattr(cores, "_HELPER_MIN_MACS", value)
        monkeypatch.setattr(cores, "spare_core", lambda: spare_core)

    return set_to


@pytest.fixture
def checksummed(monkeypatch):
    """The byte count of every ``checksum.crc32`` call made from here on,
    in call order: what the record layer read *and* verified."""
    sizes = []
    real_crc32 = checksum.crc32

    def crc32(data, *start):
        sizes.append(memoryview(data).nbytes)
        return real_crc32(data, *start)

    monkeypatch.setattr(checksum, "crc32", crc32)
    return sizes
