"""The golden fixtures of the one training program.

``engine_golden.npz`` was captured from the PRE-engine trainers (commit
20df40d) to freeze the exact numerics of every execution mode that
existed then; ``tests/core/test_engine_equivalence.py`` asserts that
the engine still reproduces those parameters and loss curves *bitwise*
— the proof that collapsing the training loops into one engine, and
later removing the trainer shims in front of it, changed no numerics.

The fixtures are host-generated: a machine with a different BLAS/NumPy
build may produce different (equally valid) bits.  On such a host the
test skips; this script re-captures the same four runs there, through
the engine::

    PYTHONPATH=src python tests/golden/generate_engine_golden.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.elastic import ElasticConfig
from repro.core.engine import (
    EngineConfig,
    LocalBackend,
    SteppedBackend,
    ThreadedBackend,
    TrainingEngine,
)
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer, OptimizerConfig
from repro.core.topology import tiny_16
from repro.core.trainer import InMemoryData
from repro.utils.rng import new_rng

OUT = Path(__file__).parent / "engine_golden.npz"

OPT = OptimizerConfig(eta0=5e-3, decay_steps=50)
N_RANKS = 3
EPOCHS = 3


def make_dataset(n, seed=0, size=16):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, size, size, size)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(n, 3)).astype(np.float32)
    return InMemoryData(x, y)


def run_local():
    model = CosmoFlowModel(tiny_16(), seed=0)
    backend = LocalBackend(
        model,
        CosmoFlowOptimizer(model.parameter_arrays(), OPT),
        make_dataset(8),
        val_data=make_dataset(4, seed=7),
        rng=new_rng(9),  # the pre-engine trainer's shuffle stream, seed 9
    )
    hist = TrainingEngine(backend, EngineConfig(epochs=EPOCHS, seed=9)).run()
    return model.get_flat_parameters(), hist


def run_distributed(mode):
    cls = SteppedBackend if mode == "stepped" else ThreadedBackend
    kwargs = {"elastic": ElasticConfig(timeout_s=10.0)} if mode == "elastic" else {}
    backend = cls(
        tiny_16(),
        make_dataset(9),
        val_data=make_dataset(6, seed=7),
        optimizer_config=OPT,
        n_ranks=N_RANKS,
        **kwargs,
    )
    engine = TrainingEngine(backend, EngineConfig(epochs=EPOCHS, seed=0))
    hist = engine.run()
    return engine.final_model.get_flat_parameters(), hist


#: tiny_16's forward convolution GEMMs at batch 1, as ``(M, K, N)``.
GEMM_SHAPES = ((16, 27, 2744), (96, 144, 175), (96, 288, 45))


def host_fingerprint():
    """BLAS/NumPy-build fingerprint from NumPy alone.

    Fixed-seed float32 GEMMs at the convolutions' shapes and one real 3-D
    FFT: a build that rounds them differently changes these bits, and no
    change to ``repro`` can.  So the equivalence test skips on "fixture
    from a different numerical build" and still fails on "the code changed
    the numerics".
    """
    rng = np.random.default_rng(0)
    parts = []
    for m, k, n in GEMM_SHAPES:
        a = rng.standard_normal((m, k)).astype(np.float32)
        b = rng.standard_normal((k, n)).astype(np.float32)
        parts.append((a @ b).ravel()[:: m * n // 32])
    field_k = np.fft.rfftn(rng.standard_normal((8, 8, 8)))
    parts += [field_k.real.ravel()[::8], field_k.imag.ravel()[::8]]
    return np.concatenate(parts).astype(np.float64)


def main():
    payload = {"host_fingerprint": host_fingerprint()}
    params, hist = run_local()
    payload["local_params"] = params
    payload["local_train_loss"] = np.asarray(hist.train_loss)
    payload["local_val_loss"] = np.asarray(hist.val_loss)
    for mode in ("stepped", "threaded", "elastic"):
        params, hist = run_distributed(mode)
        payload[f"{mode}_params"] = params
        payload[f"{mode}_train_loss"] = np.asarray(hist.train_loss)
        payload[f"{mode}_val_loss"] = np.asarray(hist.val_loss)
    np.savez(OUT, **payload)
    print(f"wrote {OUT}")
    for key in sorted(payload):
        arr = payload[key]
        print(f"  {key}: shape={arr.shape} sum={float(np.sum(arr)):.10g}")


if __name__ == "__main__":
    main()
