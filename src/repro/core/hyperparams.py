"""Hyperparameter search harness.

Section VII-B names "designing optimized hyperparameter searches" as a
use the fast training stack enables, and Section II-C describes the
ensemble pattern ("each node in the HPC system independently trains a
different network, and aggregates the results to determine which
network design in the ensemble gives the best results" — Young et al.
2017).

:class:`HyperparameterSearch` implements that pattern at library scale:
a grid or random sample of optimizer settings, each trained
independently (optionally on concurrent worker threads — the
ensemble-parallel mode), ranked by validation loss.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.engine import EngineConfig, LocalBackend, TrainingEngine
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer, OptimizerConfig
from repro.core.topology import CosmoFlowConfig
from repro.core.trainer import InMemoryData
from repro.utils.rng import new_rng

__all__ = ["TrialResult", "HyperparameterSearch"]


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one ensemble member."""

    params: Dict[str, float]
    final_train_loss: float
    best_val_loss: float
    history_val: tuple

    def __str__(self) -> str:
        kv = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"[{kv}] best val {self.best_val_loss:.4f}"


@dataclass
class HyperparameterSearch:
    """Ensemble search over :class:`OptimizerConfig` fields.

    Parameters
    ----------
    model_config
        Network preset for every trial (fresh weights per trial).
    grid
        Mapping of ``OptimizerConfig`` field name to candidate values;
        the search covers the Cartesian product (or ``n_random``
        uniform draws over it).
    epochs, seed
        Per-trial training length and base seed.
    """

    model_config: CosmoFlowConfig
    grid: Dict[str, Sequence[float]]
    epochs: int = 4
    seed: int = 0
    results: List[TrialResult] = field(default_factory=list)

    def __post_init__(self):
        if not self.grid:
            raise ValueError("grid must name at least one hyperparameter")
        valid = set(OptimizerConfig.__dataclass_fields__)
        unknown = set(self.grid) - valid
        if unknown:
            raise KeyError(f"unknown OptimizerConfig fields: {sorted(unknown)}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")

    # -- candidate enumeration ---------------------------------------------------

    def grid_candidates(self) -> List[Dict[str, float]]:
        """The full Cartesian product of the grid."""
        keys = sorted(self.grid)
        return [
            dict(zip(keys, combo))
            for combo in itertools.product(*(self.grid[k] for k in keys))
        ]

    def random_candidates(self, n: int, rng=None) -> List[Dict[str, float]]:
        """``n`` uniform draws, one value per axis per draw."""
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = new_rng(rng)
        keys = sorted(self.grid)
        return [
            {k: self.grid[k][rng.integers(len(self.grid[k]))] for k in keys}
            for _ in range(n)
        ]

    # -- execution ------------------------------------------------------------------

    def _run_trial(self, params: Dict[str, float], train, val) -> TrialResult:
        steps = self.epochs * max(1, len(train))
        opt_cfg = replace(OptimizerConfig(decay_steps=steps), **params)
        model = CosmoFlowModel(self.model_config, seed=self.seed)
        optimizer = CosmoFlowOptimizer(model.parameter_arrays(), opt_cfg)
        backend = LocalBackend(
            model, optimizer, train, val_data=val, rng=new_rng(self.seed + 1)
        )
        hist = TrainingEngine(
            backend, EngineConfig(epochs=self.epochs, seed=self.seed + 1)
        ).run()
        return TrialResult(
            params=dict(params),
            final_train_loss=hist.train_loss[-1],
            best_val_loss=float(np.nanmin(hist.val_loss)),
            history_val=tuple(hist.val_loss),
        )

    def run(
        self,
        train: InMemoryData,
        val: InMemoryData,
        candidates: Optional[List[Dict[str, float]]] = None,
        n_workers: int = 1,
    ) -> List[TrialResult]:
        """Train every candidate; returns results sorted by best val loss.

        ``n_workers > 1`` runs ensemble members on concurrent threads —
        the Section II-C pattern where each worker owns an independent
        network (no gradient exchange between them).
        """
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        candidates = candidates if candidates is not None else self.grid_candidates()
        results: List[Optional[TrialResult]] = [None] * len(candidates)

        if n_workers == 1:
            for i, params in enumerate(candidates):
                results[i] = self._run_trial(params, train, val)
        else:
            lock = threading.Lock()
            queue = list(enumerate(candidates))

            def worker():
                while True:
                    with lock:
                        if not queue:
                            return
                        i, params = queue.pop(0)
                    results[i] = self._run_trial(params, train, val)

            threads = [
                threading.Thread(target=worker, daemon=True)
                for _ in range(min(n_workers, len(candidates)))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        self.results = sorted(
            [r for r in results if r is not None], key=lambda r: r.best_val_loss
        )
        return self.results

    @property
    def best(self) -> TrialResult:
        if not self.results:
            raise RuntimeError("search has not been run")
        return self.results[0]
