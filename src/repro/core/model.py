"""The trainable CosmoFlow model.

:class:`CosmoFlowModel` wraps the assembled network with everything the
training stack needs: batched forward/prediction, loss-and-gradients
for data-parallel workers, flat parameter access for broadcast and
checkpointing, and target (de)normalization against the cosmological
parameter space.
"""

from __future__ import annotations

import collections
from typing import List, Optional, Tuple

import numpy as np

from repro.core.parameters import ParameterSpace
from repro.core.topology import CosmoFlowConfig, build_network, default_parameter_space
from repro.core import flops as flops_mod
from repro.tensor import ops
from repro.tensor.layers import Dense, Sequential
from repro.tensor.ops.losses import mse, mse_grad
from repro.tensor.tensor import Tensor
from repro.utils.cores import beside_helper, helper_pays

__all__ = ["CosmoFlowModel"]


class CosmoFlowModel:
    """A CosmoFlow network plus its training plumbing.

    Parameters
    ----------
    config
        Architecture preset (see :mod:`repro.core.topology`).
    seed
        Weight-initialization seed.  Two models built with the same
        config and seed are bitwise identical — the cheap alternative
        to the paper's rank-0 broadcast when constructing replicas.
    space
        Cosmological parameter space for target normalization; derived
        from the config's output count when omitted.
    """

    def __init__(
        self,
        config: CosmoFlowConfig,
        seed: Optional[int] = None,
        space: Optional[ParameterSpace] = None,
    ):
        self.config = config
        self.network = build_network(config, seed=seed)
        self.space = space if space is not None else default_parameter_space(config)
        if self.space.n_params != config.n_outputs:
            raise ValueError(
                f"parameter space has {self.space.n_params} parameters but the "
                f"network predicts {config.n_outputs}"
            )
        # The untaped forward's two parts (see _untaped_forward), the width
        # of what passes between them, and the prefix's convolution
        # multiply-adds per sample.
        layers = self.network.layers
        head = next(i for i, layer in enumerate(layers) if isinstance(layer, Dense))
        self._prefix, self._head = Sequential(layers[:head]), Sequential(layers[head:])
        self._features = config.flattened_size
        self._prefix_macs = int(
            sum(c.fwd_flops for c in flops_mod.network_costs(config) if c.kind == "conv") // 2
        )

    # -- parameters -----------------------------------------------------------

    def parameters(self):
        return self.network.parameters()

    def parameter_arrays(self) -> List[np.ndarray]:
        """The raw parameter ndarrays (shared, in network order)."""
        return [p.data for p in self.parameters()]

    @property
    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    @property
    def parameter_nbytes(self) -> int:
        """The gradient-allreduce message size (paper: 28.15 MB)."""
        return sum(p.data.nbytes for p in self.parameters())

    def get_flat_parameters(self) -> np.ndarray:
        return np.concatenate([p.data.ravel() for p in self.parameters()])

    def set_flat_parameters(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat)
        if flat.size != self.num_parameters:
            raise ValueError(
                f"expected {self.num_parameters} values, got {flat.size}"
            )
        offset = 0
        for p in self.parameters():
            p.data[...] = flat[offset : offset + p.size].reshape(p.shape)
            offset += p.size

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- forward / loss --------------------------------------------------------

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        s = self.config.input_size
        c = self.config.input_channels
        if x.ndim == 3:
            x = x[None, None]
        elif x.ndim == 4:
            x = x[:, None]
        if x.ndim != 5 or x.shape[1] != c or x.shape[2:] != (s, s, s):
            raise ValueError(
                f"expected input (N, {c}, {s}, {s}, {s}) "
                f"(or unbatched/channel-less variants), got {x.shape}"
            )
        return x

    def _check_target(self, y_normalized) -> np.ndarray:
        y = np.asarray(y_normalized, dtype=np.float32)
        return y[None, :] if y.ndim == 1 else y

    def forward(self, x) -> Tensor:
        """Forward pass on the tape (normalized-output space): one node per
        layer, each layer's own backward."""
        return self.network(Tensor(self._check_input(x)))

    def _untaped_forward(self, x) -> np.ndarray:
        """The network's output on ``x``, keeping nothing for a backward:
        what prediction and validation run.

        A batch of two or more whose helper's share of the prefix — every
        layer before the first ``Dense``: convolutions, activations, pools,
        flatten — pays for a helper thread (:func:`~repro.utils.cores
        .helper_pays`) splits by sample: the caller and one helper take
        samples from one queue and run the prefix on each alone, then the
        head runs once on the joined batch.  Each prefix layer computes a
        sample without looking at another (the untaped convolution packs
        one sample at a time anyway), and the head's GEMMs get the very
        operands of the unsplit forward, so the bits are the same.
        """
        x = self._check_input(x)
        n = len(x)
        if n < 2 or not helper_pays(n // 2 * self._prefix_macs):
            return self.network.forward(x)[0]
        samples = collections.deque(range(n))
        features = np.empty((n, self._features), dtype=np.float32)

        def lane():
            while True:
                # A deque's pops are thread-safe: each sample, and so each
                # row of ``features``, goes to exactly one lane.
                try:
                    i = samples.popleft()
                except IndexError:
                    return
                features[i] = self._prefix.forward(x[i : i + 1])[0][0]

        beside_helper(lane, lane)
        return self._head.forward(features)[0]

    def predict_normalized(self, x) -> np.ndarray:
        """Inference in the [0,1] target space."""
        return self._untaped_forward(x)

    def predict(self, x) -> np.ndarray:
        """Inference in physical parameter units (ΩM, σ8, ns)."""
        return self.space.denormalize(self.predict_normalized(x))

    def loss(self, x, y_normalized) -> Tensor:
        """MSE loss tensor (on the tape) against normalized targets
        ``(N, n_outputs)``."""
        return ops.mse_loss(self.forward(x), Tensor(self._check_target(y_normalized)))

    def loss_and_gradients(
        self, x, y_normalized
    ) -> Tuple[float, List[np.ndarray]]:
        """One worker step: loss value plus per-parameter gradients.

        This is the ``compute_gradients`` of Algorithm 2; the caller
        averages the returned gradients across ranks and feeds them to
        the optimizer.  The network runs as a chain — one loop forward,
        keeping each layer's context, one loop back — and every gradient
        is a fresh array (also left on its parameter's ``.grad``), so a
        caller may hold the lists of several calls at once.
        """
        out, ctx = self.network.forward(self._check_input(x), keep=True)
        loss, diff = mse(out, self._check_target(y_normalized))
        g = mse_grad(diff, np.array(1, dtype=loss.dtype)).astype(out.dtype, copy=False)
        _, *grads = self.network.backward(ctx, g, need_input_grad=False)
        for p, grad in zip(self.network.parameters(), grads):
            p.grad = grad
        return loss.item(), grads

    def validation_loss(self, x, y_normalized) -> float:
        """Loss for validation loops (nothing kept for a backward)."""
        y = self._check_target(y_normalized)
        return float(np.mean((self._untaped_forward(x) - y) ** 2))

    # -- static accounting -----------------------------------------------------

    def flop_costs(self):
        """Per-layer analytical costs (see :mod:`repro.core.flops`)."""
        return flops_mod.network_costs(self.config)

    def flops_per_sample(self) -> float:
        """Total fwd+bwd flops for one training sample."""
        return flops_mod.total_flops(self.config)["total"]

    def summary(self) -> str:
        per_sample = self.flops_per_sample()
        return (
            self.config.describe()
            + f"\nparameters: {self.num_parameters:,} ({self.parameter_nbytes / 1e6:.2f} MB)"
            + f"\nflops/sample (fwd+bwd): {per_sample / 1e9:.2f} Gflop"
        )
