"""Tests for CosmoFlowModel."""

import numpy as np
import pytest

from repro.core.metrics import relative_errors
from repro.core.model import CosmoFlowModel
from repro.core.parameters import ParameterSpace
from repro.core.topology import tiny_16


@pytest.fixture
def model():
    return CosmoFlowModel(tiny_16(), seed=0)


def sample_volume(rng, n=1, size=16):
    return rng.standard_normal((n, 1, size, size, size)).astype(np.float32)


class TestConstruction:
    def test_seeded_models_identical(self):
        a = CosmoFlowModel(tiny_16(), seed=3)
        b = CosmoFlowModel(tiny_16(), seed=3)
        np.testing.assert_array_equal(a.get_flat_parameters(), b.get_flat_parameters())

    def test_space_output_mismatch_raises(self):
        space = ParameterSpace().subset(["omega_m"])
        with pytest.raises(ValueError):
            CosmoFlowModel(tiny_16(), seed=0, space=space)

    def test_summary(self, model):
        text = model.summary()
        assert "parameters" in text and "Gflop" in text


class TestForwardAndPredict:
    def test_forward_shape(self, model):
        rng = np.random.default_rng(0)
        out = model.forward(sample_volume(rng, n=2))
        assert out.shape == (2, 3)

    def test_accepts_unbatched_and_channel_less(self, model):
        rng = np.random.default_rng(1)
        v3 = rng.standard_normal((16, 16, 16)).astype(np.float32)
        v4 = rng.standard_normal((2, 16, 16, 16)).astype(np.float32)
        assert model.forward(v3).shape == (1, 3)
        assert model.forward(v4).shape == (2, 3)

    def test_wrong_shape_raises(self, model):
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 1, 8, 8, 8), dtype=np.float32))

    @pytest.mark.parametrize("entry", ["predict", "validation_loss", "loss_and_gradients"])
    def test_empty_batch_raises_at_the_boundary(self, model, entry):
        """N = 0 is refused before any layer runs, naming the shape wanted
        (it used to fail inside ``Dense``'s matmul)."""
        empty = np.zeros((0, 1, 16, 16, 16), dtype=np.float32)
        args = () if entry == "predict" else (np.zeros((0, 3), dtype=np.float32),)
        with pytest.raises(ValueError, match=r"expected input \(N, 1, 16, 16, 16\) with N >= 1"):
            getattr(model, entry)(empty, *args)

    def test_predict_physical_units(self, model):
        rng = np.random.default_rng(2)
        theta = model.predict(sample_volume(rng))
        assert theta.shape == (1, 3)
        # denormalized values: ΩM scale vs ns scale differ
        span = model.space.highs - model.space.lows
        assert span[0] == pytest.approx(0.10)

    def test_predict_normalized_untaped(self, model):
        rng = np.random.default_rng(3)
        out = model.predict_normalized(sample_volume(rng))
        assert isinstance(out, np.ndarray)


class TestFlatParameters:
    def test_round_trip(self, model):
        flat = model.get_flat_parameters()
        assert flat.size == model.num_parameters
        model.set_flat_parameters(np.zeros_like(flat))
        assert np.all(model.get_flat_parameters() == 0.0)
        model.set_flat_parameters(flat)
        np.testing.assert_array_equal(model.get_flat_parameters(), flat)

    def test_wrong_size_raises(self, model):
        with pytest.raises(ValueError):
            model.set_flat_parameters(np.zeros(3))

    def test_parameter_nbytes(self, model):
        assert model.parameter_nbytes == model.num_parameters * 4


class TestLossAndGradients:
    def test_loss_positive(self, model):
        rng = np.random.default_rng(4)
        x = sample_volume(rng)
        y = np.array([[0.5, 0.5, 0.5]], dtype=np.float32)
        assert model.loss(x, y).item() > 0.0

    def test_gradients_cover_all_params(self, model):
        rng = np.random.default_rng(5)
        loss, grads = model.loss_and_gradients(
            sample_volume(rng), np.array([0.5, 0.5, 0.5], dtype=np.float32)
        )
        assert loss > 0.0
        assert len(grads) == len(model.parameters())
        for g, p in zip(grads, model.parameters()):
            assert g.shape == p.shape
            assert np.all(np.isfinite(g))

    def test_gradients_nonzero(self, model):
        rng = np.random.default_rng(6)
        _, grads = model.loss_and_gradients(
            sample_volume(rng), np.array([0.9, 0.1, 0.5], dtype=np.float32)
        )
        assert any(np.abs(g).max() > 0 for g in grads)

    def test_repeated_calls_fresh_grads(self, model):
        """zero_grad between calls: gradients must not accumulate."""
        rng = np.random.default_rng(7)
        x = sample_volume(rng)
        y = np.array([0.5, 0.5, 0.5], dtype=np.float32)
        _, g1 = model.loss_and_gradients(x, y)
        _, g2 = model.loss_and_gradients(x, y)
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(a, b, rtol=1e-6)

    def test_validation_loss_matches_training_loss(self, model):
        rng = np.random.default_rng(8)
        x = sample_volume(rng, n=2)
        y = np.full((2, 3), 0.5, dtype=np.float32)
        train_loss = model.loss(x, y).item()
        val_loss = model.validation_loss(x, y)
        assert val_loss == pytest.approx(train_loss, rel=1e-5)

    def test_sgd_steps_reduce_loss(self, model):
        """A few steps of plain SGD on one batch reduce the loss."""
        rng = np.random.default_rng(9)
        x = sample_volume(rng, n=2)
        y = np.full((2, 3), 0.5, dtype=np.float32)
        first = None
        for _ in range(5):
            loss, grads = model.loss_and_gradients(x, y)
            if first is None:
                first = loss
            for p, g in zip(model.parameter_arrays(), grads):
                p -= 1e-3 * g
        final, _ = model.loss_and_gradients(x, y)
        assert final < first

    def test_flop_costs_exposed(self, model):
        assert model.flops_per_sample() > 0
        assert len(model.flop_costs()) > 5


class TestEndToEndPrediction:
    def test_overfit_two_volumes_and_recover_parameters(self):
        """Train on two fixed volumes until predictions approach targets —
        the smallest possible version of the paper's Figure 6."""
        model = CosmoFlowModel(tiny_16(), seed=1)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 1, 16, 16, 16)).astype(np.float32)
        theta = model.space.sample(2, rng=rng)
        y = model.space.normalize(theta).astype(np.float32)
        from repro.core.optimizer import CosmoFlowOptimizer, OptimizerConfig

        opt = CosmoFlowOptimizer(
            model.parameter_arrays(),
            OptimizerConfig(eta0=5e-3, eta_min=1e-4, decay_steps=200),
        )
        for _ in range(200):
            _, grads = model.loss_and_gradients(x, y)
            opt.step(grads)
        pred = model.predict(x)
        summary = relative_errors(pred, theta, names=model.space.names)
        assert max(summary.errors) < 0.05
