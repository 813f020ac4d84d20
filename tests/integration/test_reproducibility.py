"""End-to-end reproducibility guarantees.

Determinism is load-bearing for this library: the stepped/threaded
backend equivalence, checkpoint resumption, and the scientific results
all assume that a seed pins the entire pipeline.
"""

import numpy as np
import pytest

from repro.core.engine import (
    EngineConfig,
    LocalBackend,
    SteppedBackend,
    ThreadedBackend,
    TrainingEngine,
)
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer, OptimizerConfig
from repro.core.topology import ConvSpec, CosmoFlowConfig
from repro.core.trainer import InMemoryData
from repro.cosmo import SimulationConfig, build_arrays
from repro.utils.rng import new_rng

MICRO = CosmoFlowConfig(
    name="micro4r",
    input_size=4,
    conv_layers=(ConvSpec(16, 2),),
    fc_sizes=(8,),
    n_outputs=3,
)
SIM = SimulationConfig(particle_grid=16, histogram_grid=8, box_size=32.0)


def build_data(seed=0):
    x, y, _ = build_arrays(4, SIM, seed=seed)
    return x, y


def train_local(model, data, epochs, seed):
    optimizer = CosmoFlowOptimizer(model.parameter_arrays(), OptimizerConfig(decay_steps=64))
    backend = LocalBackend(model, optimizer, data, rng=new_rng(seed))
    TrainingEngine(backend, EngineConfig(epochs=epochs, seed=seed, validate=False)).run()


class TestPipelineDeterminism:
    def test_simulation_bitwise_reproducible(self):
        a, ya = build_data(seed=3)
        b, yb = build_data(seed=3)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(ya, yb)

    def test_training_bitwise_reproducible(self):
        x, y = build_data()

        def train_once():
            model = CosmoFlowModel(MICRO, seed=5)
            train_local(model, InMemoryData(x, y, augment=True), epochs=2, seed=9)
            return model.get_flat_parameters()

        np.testing.assert_array_equal(train_once(), train_once())

    def test_augmentation_seed_controls_stream(self):
        """Different run seeds -> different augmented streams ->
        different final weights (the seed really threads through)."""
        x, y = build_data()

        def train_with(seed):
            model = CosmoFlowModel(MICRO, seed=5)
            train_local(model, InMemoryData(x, y, augment=True), epochs=1, seed=seed)
            return model.get_flat_parameters()

        assert not np.array_equal(train_with(1), train_with(2))

    def test_distributed_reproducible_across_modes_and_runs(self):
        x, y = build_data(seed=1)
        data = InMemoryData(x, y)

        def run(backend_cls):
            backend = backend_cls(
                MICRO, data, optimizer_config=OptimizerConfig(decay_steps=64), n_ranks=4
            )
            engine = TrainingEngine(backend, EngineConfig(epochs=2, seed=2, validate=False))
            engine.run()
            return engine.final_model.get_flat_parameters()

        stepped1 = run(SteppedBackend)
        stepped2 = run(SteppedBackend)
        threaded = run(ThreadedBackend)
        np.testing.assert_array_equal(stepped1, stepped2)
        np.testing.assert_allclose(stepped1, threaded, rtol=1e-5, atol=1e-6)

    def test_record_round_trip_preserves_training(self, tmp_path):
        """Training from record files == training from arrays."""
        from repro.io.dataset import RecordDataset, write_dataset

        x, y = build_data(seed=4)
        paths = write_dataset(tmp_path, x, y, samples_per_file=8)
        x2, y2 = RecordDataset(paths).to_arrays()

        def train_on(xa, ya):
            model = CosmoFlowModel(MICRO, seed=0)
            train_local(model, InMemoryData(xa, ya), epochs=1, seed=3)
            return model.get_flat_parameters()

        np.testing.assert_array_equal(train_on(x, y), train_on(x2, y2))
