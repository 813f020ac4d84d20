"""A timing-free guard on per-step framework work.

One warm ``CosmoFlowModel.loss_and_gradients`` makes a fixed number of
Python function calls: the chain's loops, each layer's forward and
backward, the kernels' Python and NumPy's own Python wrappers.  Counting
them (``sys.setprofile`` ``call`` events — no clock) catches per-step
bookkeeping creeping back, on any host, without a timing to flake.  The
pins are the counts once the kernel lookup lost its name table (the chain
first made 125 and 170, the tape's step 263 and 355, counted the same
way) plus a small margin for NumPy's wrappers.  ``python -m
tests.core.test_step_calls`` prints the counts (it needs no pytest).
"""

import sys

import numpy as np

from repro.core.model import CosmoFlowModel
from repro.core.topology import scaled_32, tiny_16
from repro.utils import cores

#: Calls per warm ``loss_and_gradients``: (count when pinned, margin).
PINNED = {"tiny_16": (122, 8), "scaled_32": (166, 8)}
PRESETS = {"tiny_16": tiny_16, "scaled_32": scaled_32}


def python_calls(preset: str) -> int:
    """Python ``call`` events in one warm batch-1 ``loss_and_gradients`` on
    this thread, no helper thread splitting work (whether one would is a
    property of the host, not of the step)."""
    model = CosmoFlowModel(PRESETS[preset](), seed=0)
    s = model.config.input_size
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 1, s, s, s)).astype(np.float32)
    y = rng.random((1, 3), dtype=np.float32)
    saved = cores._HELPER_MIN_MACS
    cores._HELPER_MIN_MACS = float("inf")
    try:
        model.loss_and_gradients(x, y)  # warm: shape caches, first-use imports
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            model.loss_and_gradients(x, y)
        finally:
            sys.setprofile(None)
    finally:
        cores._HELPER_MIN_MACS = saved
    return calls


def check_pinned(preset):
    pinned, margin = PINNED[preset]
    calls = python_calls(preset)
    assert calls <= pinned + margin, f"{preset}: {calls} Python calls per step, pinned at {pinned}"


def test_tiny_16_calls_per_step_stay_pinned():
    check_pinned("tiny_16")


def test_scaled_32_calls_per_step_stay_pinned():
    check_pinned("scaled_32")


if __name__ == "__main__":
    for name in PINNED:
        print(f"{name}: {python_calls(name)} Python calls per warm loss_and_gradients")
