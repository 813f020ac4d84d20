"""CosmoFlow (SC18) reproduction.

A pure-Python/NumPy implementation of *CosmoFlow: Using Deep Learning
to Learn the Universe at Scale* (Mathuriya et al., SC18): the 3D
convolutional network that regresses cosmological parameters
(ΩM, σ8, ns) from dark-matter density volumes, together with every
substrate the paper's system depends on — a deep-learning framework
with autograd (:mod:`repro.tensor`), one-GEMM-per-pass 3D
convolution primitives (:mod:`repro.primitives`), a CPE-ML-Plugin-style
synchronous gradient-aggregation layer (:mod:`repro.comm`), a TFRecord
I/O pipeline and Lustre/DataWarp filesystem models (:mod:`repro.io`),
the MUSIC+pycola simulation pipeline that generates training data
(:mod:`repro.cosmo`), and a calibrated cluster performance model for
the scaling studies (:mod:`repro.perfmodel`).

Quickstart::

    from repro import (CosmoFlowModel, CosmoFlowOptimizer, EngineConfig,
                       LocalBackend, TrainingEngine, scaled_32)
    from repro.cosmo import build_arrays

    data = build_arrays(n_sims=40, grid=32, seed=7)
    model = CosmoFlowModel(scaled_32(), seed=0)
    optimizer = CosmoFlowOptimizer(model.parameter_arrays())
    backend = LocalBackend(model, optimizer, train)  # or SteppedBackend(...)
    history = TrainingEngine(backend, EngineConfig(epochs=8)).run()
    # ... see examples/quickstart.py
"""

from repro.core import (
    CosmoFlowConfig,
    CosmoFlowModel,
    CosmoFlowOptimizer,
    EngineConfig,
    InMemoryData,
    LocalBackend,
    OptimizerConfig,
    ParameterSpace,
    SteppedBackend,
    ThreadedBackend,
    TrainingEngine,
    build_network,
    paper_128,
    ravanbakhsh_64,
    relative_errors,
    scaled_32,
    tiny_16,
)

__version__ = "1.0.0"

__all__ = [
    "CosmoFlowConfig",
    "CosmoFlowModel",
    "CosmoFlowOptimizer",
    "EngineConfig",
    "InMemoryData",
    "LocalBackend",
    "OptimizerConfig",
    "ParameterSpace",
    "SteppedBackend",
    "ThreadedBackend",
    "TrainingEngine",
    "build_network",
    "paper_128",
    "ravanbakhsh_64",
    "relative_errors",
    "scaled_32",
    "tiny_16",
    "__version__",
]
