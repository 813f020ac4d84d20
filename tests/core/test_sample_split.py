"""The sample split of ``CosmoFlowModel``'s untaped forward, against the
same call on one thread, byte for byte.

A batch of two or more whose helper's share of the per-sample prefix (the
layers before the first ``Dense``) pays for a helper thread runs that
prefix on the caller and one helper, sample by sample from one queue, then
the head once on the joined batch.  The tests below pin that ``predict``,
``predict_normalized`` and ``validation_loss`` keep their bytes with the
split forced on and off (with fast thread switching too), that an
exception in either lane surfaces after
the join (the caller's own first), that the helper builds no tape, and
which calls split at the constant as shipped.
"""

import math
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import model as model_mod
from repro.core.engine import Callback, EngineConfig, ThreadedBackend, TrainingEngine
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import OptimizerConfig
from repro.core.topology import scaled_32, tiny_16
from repro.core.trainer import InMemoryData
from repro.tensor.tensor import _grad_enabled
from repro.utils import cores

ALWAYS, NEVER = 0, math.inf
PRESETS = {"scaled_32": scaled_32, "tiny_16": tiny_16}


@pytest.fixture(scope="module")
def models():
    return {name: CosmoFlowModel(preset(), seed=0) for name, preset in PRESETS.items()}


@pytest.fixture
def sample_splits(monkeypatch):
    """Counts the model's ``beside_helper`` calls: how many forwards split."""
    seen = []
    real = model_mod.beside_helper
    monkeypatch.setattr(model_mod, "beside_helper", lambda *work: seen.append(1) or real(*work))
    return seen


def batch(model, n, seed=0):
    shape = (n, 1) + (model.config.input_size,) * 3
    rng = np.random.default_rng([seed, n])
    return rng.random(shape, dtype=np.float32), rng.random((n, 3), dtype=np.float32)


def untaped_calls(model, x, y):
    """Every public untaped call's result, as bytes, the thread count after
    each checked against before."""
    results = []
    for call in (
        lambda: model.predict(x),
        lambda: model.predict_normalized(x),
        lambda: np.float64(model.validation_loss(x, y)),
    ):
        before = threading.active_count()
        results.append(call().tobytes())
        assert threading.active_count() == before
    return results


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("preset", PRESETS)
def test_split_is_bitwise(models, split_at, sample_splits, preset, n):
    model = models[preset]
    x, y = batch(model, n)
    split_at(NEVER)
    want = untaped_calls(model, x, y)
    assert not sample_splits
    split_at(ALWAYS)
    assert untaped_calls(model, x, y) == want
    assert len(sample_splits) == (3 if n > 1 else 0)  # batch 1 never splits


def test_every_sample_once_under_fast_thread_switching(models, split_at, sample_splits):
    """The lanes share one queue and one output array: with the interpreter
    switching threads every microsecond, every row is still written once
    (an unwritten row of the ``np.empty`` output would change the bytes)."""
    model = models["tiny_16"]
    x, _ = batch(model, 24)
    split_at(NEVER)
    want = model.predict_normalized(x).tobytes()
    split_at(ALWAYS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = model.predict_normalized(x).tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert got == want and len(sample_splits) == 1


def fail_on(monkeypatch, layer, sides, finished):
    """Make ``layer`` raise on the lanes in ``sides`` ("caller", "helper");
    on the other it first sleeps, so a caller that did not wait for the
    helper would see it unfinished."""
    real = layer.forward

    def forward(x, keep=False):
        side = "helper" if threading.current_thread().name == cores.HELPER_THREAD_NAME else "caller"
        if side in sides:
            raise RuntimeError(f"failed on the {side}")
        time.sleep(0.05)
        finished.append(side)
        return real(x, keep)

    monkeypatch.setattr(layer, "forward", forward)


@pytest.mark.parametrize(
    "sides, raised", [({"helper"}, "helper"), ({"caller"}, "caller"), ({"caller", "helper"}, "caller")]
)
def test_a_lane_failure_surfaces_after_the_join(monkeypatch, split_at, sides, raised):
    model = CosmoFlowModel(tiny_16(), seed=0)
    x, _ = batch(model, 4)
    finished = []
    fail_on(monkeypatch, model._prefix.layers[0], sides, finished)
    split_at(ALWAYS)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"failed on the {raised}"):
        model.predict(x)
    assert threading.active_count() == before
    # A failing lane stops at its first sample; the other takes the other
    # three from the queue and finishes them before the exception surfaces.
    assert len(finished) == (3 if len(sides) == 1 else 0)


def test_the_helper_builds_no_tape(monkeypatch, split_at):
    """Both lanes run the chain's forward without ``keep``: no layer on
    either thread keeps a context (or a packed operand) for a backward, and
    no grad mode is consulted or changed."""
    model = CosmoFlowModel(tiny_16(), seed=0)
    x, _ = batch(model, 8)
    seen = []
    for layer in model._prefix:
        real = layer.forward

        def forward(x, keep=False, real=real):
            out, ctx = real(x, keep)
            seen.append((threading.current_thread().name, keep, ctx is not None))
            time.sleep(0.001)  # lets the other lane run: tiny_16 samples are too quick to share
            return out, ctx

        monkeypatch.setattr(layer, "forward", forward)
    split_at(ALWAYS)
    assert _grad_enabled()
    model.predict(x)
    assert _grad_enabled()
    assert {name for name, _, _ in seen} == {"MainThread", cores.HELPER_THREAD_NAME}
    assert not any(keep or kept for _, keep, kept in seen)


@pytest.mark.parametrize(
    "preset, n, splits",
    [("scaled_32", 1, 0), ("scaled_32", 2, 1), ("scaled_32", 8, 1), ("tiny_16", 1, 0), ("tiny_16", 8, 0)],
)
def test_decisions_at_the_shipped_constant(models, split_at, sample_splits, preset, n, splits):
    """Given a spare core: ``scaled_32`` splits from batch 2 (73 M conv
    multiply-adds per sample), ``tiny_16`` not even at batch 8 (4 samples of
    3.7 M for the helper), batch 1 never."""
    model = models[preset]
    split_at(cores._HELPER_MIN_MACS)
    model.predict(batch(model, n)[0])
    assert len(sample_splits) == splits


class PredictEachStep(Callback):
    """A batch-8 ``predict`` on each rank's thread after each of its steps."""

    def __init__(self, x):
        self.x = x

    def on_step_end(self, rc):
        rc.model.predict(self.x)


@pytest.mark.parametrize("cpus, splits_per_rank", [(2, 0), (64, 1)])
def test_threaded_ranks(monkeypatch, sample_splits, cpus, splits_per_rank):
    """Two rank threads on two CPUs leave no core spare, so neither rank's
    ``predict`` splits; with CPUs to spare each does."""
    monkeypatch.setattr(cores, "_HELPER_MIN_MACS", ALWAYS)
    monkeypatch.setattr(cores, "_ONE_BLAS_THREAD", True)
    monkeypatch.setattr(cores, "_CPUS", cpus)
    rng = np.random.default_rng(0)
    data = InMemoryData(rng.random((2, 1, 16, 16, 16), dtype=np.float32), rng.random((2, 3), dtype=np.float32))
    backend = ThreadedBackend(tiny_16(), data, optimizer_config=OptimizerConfig(decay_steps=1), n_ranks=2)
    x = rng.random((8, 1, 16, 16, 16), dtype=np.float32)
    config = EngineConfig(epochs=1, batch_size=1, seed=0, validate=False)
    TrainingEngine(backend, config, callbacks=[PredictEachStep(x)]).run()
    assert len(sample_splits) == 2 * splits_per_rank
