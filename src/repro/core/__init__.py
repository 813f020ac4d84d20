"""CosmoFlow core: the paper's primary contribution.

* :mod:`repro.core.topology` — the CosmoFlow network topology (Figure 2
  reconstruction) with presets for the paper's 128³ network, the
  Ravanbakhsh-2017 64³ predecessor, and scaled-down variants.
* :mod:`repro.core.parameters` — the cosmological parameter space
  (ΩM, σ8, ns) with the paper's Planck-derived sampling ranges and
  target normalization.
* :mod:`repro.core.flops` — exact analytical flop/parameter accounting
  (Table I per-layer numbers, the 69.33 Gflop / 28.15 MB constants).
* :mod:`repro.core.model` — :class:`CosmoFlowModel`, the trainable
  network with gradient plumbing for data-parallel training.
* :mod:`repro.core.optimizer` — Adam + LARC + polynomial learning-rate
  decay exactly as specified in Section III-B.
* :mod:`repro.core.engine` — the one training program
  (:class:`TrainingEngine`) over a pluggable execution backend:
  single-process, or fully synchronous data-parallel training
  (Algorithm 2) over :mod:`repro.comm` on stepped or threaded ranks; callback hooks and Figure-3-style stage timing.
  ``TrainingEngine(backend, config).run()`` is the only way to start a
  run.
* :mod:`repro.core.elastic` — :class:`ElasticConfig`, the
  fault-tolerance policy of the thread and process backends.
* :mod:`repro.core.trainer` — :class:`InMemoryData`, the dataset
  protocol the backends consume, with cube-symmetry augmentation.
* :mod:`repro.core.metrics` — the paper's relative-error metric and
  result summaries.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy(__name__, {
    "topology": ("ConvSpec", "CosmoFlowConfig", "paper_128", "ravanbakhsh_64", "scaled_32",
                 "tiny_16", "build_network"),
    "parameters": ("ParameterSpace", "PLANCK_RANGES"),
    "flops": ("LayerCost", "network_costs", "total_flops", "parameter_count",
              "parameter_bytes", "PAPER_TOTAL_FLOPS", "PAPER_PARAM_BYTES"),
    "model": ("CosmoFlowModel",),
    "optimizer": ("PolynomialDecay", "Adam", "larc_scale", "CosmoFlowOptimizer",
                  "OptimizerConfig"),
    "engine": ("TrainingEngine", "EngineConfig", "EngineResult", "ExecutionBackend",
               "LocalBackend", "SteppedBackend", "ThreadedBackend", "Callback", "LRRecorder",
               "DivergenceCheck", "CheckpointCallback", "RankContext",
               "History"),
    "trainer": ("InMemoryData",),
    "elastic": ("ElasticConfig",),
    "metrics": ("relative_errors", "RelativeErrorSummary"),
    "checkpoint": ("save_checkpoint", "load_checkpoint", "latest_checkpoint",
                   "CheckpointError", "CheckpointCorruptError"),
})
