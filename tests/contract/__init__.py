"""The determinism contract, one line per subsystem: ``test_engine_line``
(every execution mode ends on the same bits) and ``test_io_line`` (the
prefetch pipeline reads what the dataset reads).  ``dataset`` builds the
seeded synthetic ``tiny_16`` samples the engine tests train on."""

import numpy as np

from repro.core.trainer import InMemoryData


def dataset(n, seed=0):
    """``n`` seeded ``tiny_16`` volumes (one channel, 16^3) and targets in
    [0.2, 0.8)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, 16, 16, 16)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(n, 3)).astype(np.float32)
    return InMemoryData(x, y)
