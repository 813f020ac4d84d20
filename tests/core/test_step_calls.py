"""A timing-free guard on per-step framework work.

One warm ``CosmoFlowModel.loss_and_gradients`` makes a fixed number of
Python function calls: the chain's loops, each layer's forward and
backward, the kernels' Python and NumPy's own Python wrappers.  Counting
them (``sys.setprofile`` ``call`` events — no clock) catches per-step
bookkeeping creeping back, on any host, without a timing to flake.  The
pins are the counts once the kernel lookup lost its name table (the chain
first made 125 and 170, the tape's step 263 and 355, counted the same
way) plus a small margin for NumPy's wrappers.  A stepped backend's
``compute`` for four ranks runs their batches as the groups of one pass,
so it is pinned too (it was 494 as four one-group calls).  ``python
-m tests.core.test_step_calls`` prints the counts (it needs no pytest).
"""

import sys

import numpy as np

from repro.comm.serial import SteppedGroup
from repro.core.engine import EngineConfig, SteppedBackend, TrainingEngine
from repro.core.model import CosmoFlowModel
from repro.core.topology import scaled_32, tiny_16
from repro.core.trainer import InMemoryData
from repro.utils import cores

#: Calls per warm ``loss_and_gradients``: (count when pinned, margin).
PINNED = {"tiny_16": (122, 8), "scaled_32": (166, 8)}
#: Calls per warm stepped ``compute`` of four ``tiny_16`` ranks at
#: mini-batch 1: (count when pinned, margin).
STEPPED4_PINNED = (200, 16)
PRESETS = {"tiny_16": tiny_16, "scaled_32": scaled_32}


def count_calls(step) -> int:
    """Python ``call`` events in one warm ``step()`` on this thread, no
    helper thread splitting work (whether one would is a property of the
    host, not of the step)."""
    saved = cores._HELPER_MIN_MACS
    cores._HELPER_MIN_MACS = float("inf")
    try:
        step()  # warm: shape caches, first-use imports
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            step()
        finally:
            sys.setprofile(None)
    finally:
        cores._HELPER_MIN_MACS = saved
    return calls


def python_calls(preset: str) -> int:
    """Calls in one warm batch-1 ``loss_and_gradients``."""
    model = CosmoFlowModel(PRESETS[preset](), seed=0)
    s = model.config.input_size
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 1, s, s, s)).astype(np.float32)
    y = rng.random((1, 3), dtype=np.float32)
    return count_calls(lambda: model.loss_and_gradients(x, y))


def stepped_compute_calls(n_ranks: int = 4) -> int:
    """Calls in one warm stepped ``compute`` of ``n_ranks`` ``tiny_16``
    ranks at mini-batch 1."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n_ranks, 1, 16, 16, 16)).astype(np.float32)
    y = rng.random((n_ranks, 3), dtype=np.float32)
    backend = SteppedBackend(tiny_16(), InMemoryData(x, y), n_ranks=n_ranks)
    engine = TrainingEngine(backend, EngineConfig(epochs=1))
    rc = backend._make_context(engine, SteppedGroup(n_ranks), engine.build_callbacks())
    batch = [(x[r : r + 1], y[r : r + 1]) for r in range(n_ranks)]
    return count_calls(lambda: rc.compute(batch))


def check_pinned(preset):
    pinned, margin = PINNED[preset]
    calls = python_calls(preset)
    assert calls <= pinned + margin, f"{preset}: {calls} Python calls per step, pinned at {pinned}"


def test_tiny_16_calls_per_step_stay_pinned():
    check_pinned("tiny_16")


def test_scaled_32_calls_per_step_stay_pinned():
    check_pinned("scaled_32")


def test_a_stepped_compute_of_four_ranks_stays_pinned():
    pinned, margin = STEPPED4_PINNED
    calls = stepped_compute_calls()
    assert calls <= pinned + margin, f"{calls} Python calls per 4-rank compute, pinned at {pinned}"


if __name__ == "__main__":
    for name in PINNED:
        print(f"{name}: {python_calls(name)} Python calls per warm loss_and_gradients")
    print(f"tiny_16, 4 stepped ranks: {stepped_compute_calls()} Python calls per warm compute")
