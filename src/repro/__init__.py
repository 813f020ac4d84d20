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

Quickstart (``examples/quickstart.py`` is the longer version)::

    from repro import (CosmoFlowModel, CosmoFlowOptimizer, EngineConfig,
                       InMemoryData, LocalBackend, TrainingEngine, tiny_16)
    from repro.cosmo import SimulationConfig, build_arrays, train_val_test_split

    sim = SimulationConfig()  # 64³ particles -> eight 16³ sub-volumes each
    volumes, targets, theta = build_arrays(6, sim, seed=7)
    (x, y, _), (xv, yv, _), (xt, _, tt) = train_val_test_split(
        volumes, targets, theta, sim.subvolumes_per_sim, rng=0)
    model = CosmoFlowModel(tiny_16(), seed=0)
    optimizer = CosmoFlowOptimizer(model.parameter_arrays())
    backend = LocalBackend(model, optimizer, InMemoryData(x, y, augment=True),
                           val_data=InMemoryData(xv, yv))
    history = TrainingEngine(backend, EngineConfig(epochs=2)).run()
    print(history.val_loss, model.predict(xt) - tt)

Every package exports its public names lazily: ``import repro`` loads no
submodule, and a name's first use loads only the module defining it.
"""

import importlib
import sys

__version__ = "1.0.0"


def _lazy(package: str, table: dict):
    """The public names of ``package``, each resolved on first use (PEP 562).

    ``table`` maps each submodule, relative to ``package``, to the names it
    defines that the package exports (``None``: the submodule itself).
    Returns ``(__all__, __getattr__, __dir__)`` for the package to bind.  A
    name's first lookup imports its submodule and binds every name the
    table gives that submodule as a plain package global, so later lookups
    never reach ``__getattr__``.
    """
    origin = {name: module for module, names in table.items() for name in names or (module,)}
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        source = importlib.import_module(f"{package}.{module}")
        names = table[module]
        namespace.update({n: getattr(source, n) for n in names} if names else {name: source})
        return namespace[name]

    def __dir__():
        return sorted(namespace.keys() | origin.keys())

    return list(origin), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy(__name__, {
    "core.topology": ("CosmoFlowConfig", "build_network", "paper_128", "ravanbakhsh_64",
                      "scaled_32", "tiny_16"),
    "core.model": ("CosmoFlowModel",),
    "core.optimizer": ("CosmoFlowOptimizer", "OptimizerConfig"),
    "core.engine": ("EngineConfig", "LocalBackend", "SteppedBackend", "ThreadedBackend",
                    "TrainingEngine"),
    "core.trainer": ("InMemoryData",),
    "core.parameters": ("ParameterSpace",),
    "core.metrics": ("relative_errors",),
})
__all__.append("__version__")
