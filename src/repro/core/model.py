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
from repro.primitives import conv3d as kernels
from repro.tensor.layers import Conv3D, Dense, Sequential
from repro.tensor.ops import mse, mse_grad, mse_loss
from repro.tensor.tensor import Tensor
from repro.utils import cores
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
        # The network's two parts (see _untaped_forward and
        # group_loss_and_gradients), the width of what passes between them,
        # the prefix's convolution multiply-adds per sample, and the
        # elements its convolutions pack per sample.
        layers = self.network.layers
        head = next(i for i, layer in enumerate(layers) if isinstance(layer, Dense))
        self._prefix, self._head = Sequential(layers[:head]), Sequential(layers[head:])
        self._features = config.flattened_size
        self._prefix_macs = int(
            sum(c.fwd_flops for c in flops_mod.network_costs(config) if c.kind == "conv") // 2
        )
        shape = (config.input_channels,) + (config.input_size,) * 3
        self._packed_per_sample = 0
        for layer in self._prefix:
            if isinstance(layer, Conv3D):
                self._packed_per_sample += kernels.conv3d_pack_size(
                    (1,) + shape, layer.kernel, layer.stride, layer.padding
                )
            shape = layer.output_shape(shape)

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
        if x.ndim != 5 or x.shape[1] != c or x.shape[2:] != (s, s, s) or not len(x):
            raise ValueError(
                f"expected input (N, {c}, {s}, {s}, {s}) with N >= 1 "
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
        return mse_loss(self.forward(x), Tensor(self._check_target(y_normalized)))

    def loss_and_gradients(
        self, x, y_normalized
    ) -> Tuple[float, List[np.ndarray]]:
        """One worker step: loss value plus per-parameter gradients.

        This is the ``compute_gradients`` of Algorithm 2; the caller
        averages the returned gradients across ranks and feeds them to
        the optimizer.  It is :meth:`group_loss_and_gradients` with the
        whole batch as one group.
        """
        return self.group_loss_and_gradients(x, y_normalized)[0]

    def group_loss_and_gradients(
        self, x, y_normalized, sizes=None
    ) -> List[Tuple[float, List[np.ndarray]]]:
        """Loss and gradients of each group of a batch: the first
        ``sizes[0]`` samples, the next ``sizes[1]``, ... (default: one
        group).  Group ``i``'s pair is ``loss_and_gradients`` of its
        samples alone, bit for bit; a stepped backend passes its simulated
        ranks' batches joined in rank order.

        The network runs as a chain — one loop forward, keeping each
        layer's context, one loop back — in two parts.  The prefix (every
        layer before the first ``Dense``) runs once over the groups, its
        convolutions keeping each group's weight gradients apart
        (``Layer.forward``'s ``groups``).  The dense head and the loss run
        once per group: a batched GEMM's rows are not the one-row GEMMs'
        bytes.  Groups are joined into runs small enough to pay (see
        :meth:`_chunks`); a group too large for a run alone runs alone,
        as its own call would.

        Every gradient is a fresh array (the last group's are also left on
        the parameters' ``.grad``), so a caller may hold the lists of
        several groups and calls at once.
        """
        x = self._check_input(x)
        y = self._check_target(y_normalized)
        chunks = [(0, ((0, len(x)),))] if sizes is None else self._chunks(len(x), sizes)
        results = []
        for lo, groups in chunks:
            features, ctx = self._prefix.forward(x[lo : lo + groups[-1][1]], True, groups)
            g_features = np.empty(features.shape, features.dtype)
            heads = []
            for a, b in groups:
                out, head_ctx = self._head.forward(features[a:b], True)
                loss, diff = mse(out, y[lo + a : lo + b])
                g = mse_grad(diff, np.array(1, dtype=loss.dtype)).astype(out.dtype, copy=False)
                g_features[a:b], *head_grads = self._head.backward(head_ctx, g)
                heads.append((loss.item(), head_grads))
            _, *prefix_grads = self._prefix.backward(ctx, g_features, need_input_grad=False)
            for i, (loss, head_grads) in enumerate(heads):
                grads = [grad[i] for grad in prefix_grads]
                grads += head_grads
                results.append((loss, grads))
        for p, grad in zip(self.network.parameters(), grads):
            p.grad = grad
        return results

    def _chunks(self, n: int, sizes) -> List[Tuple[int, Tuple[Tuple[int, int], ...]]]:
        """``sizes`` as runs of whole groups, each ``(first sample, group
        bounds relative to it)``: as many groups to a run as keep its
        convolutions' packed operands within ``conv3d``'s packing budget
        (``_PACK_MAX_ELEMS``) and its prefix's multiply-adds within the
        work that pays for a helper thread's start and join
        (``cores._HELPER_MIN_MACS``), and at least one.

        The second bound is the one that binds.  Joining saves each call's
        fixed costs, which that much work already hides; past it a joined
        pass only streams larger arrays through the cache.  ``tiny_16``
        joins up to 8 samples; a ``scaled_32`` sample is past it alone
        (64 ranks joined 12 to a run were 10-18 % slower a step than one
        at a time, and held 60 MB more).
        """
        sizes = [int(s) for s in sizes]
        if not sizes or min(sizes) < 1 or sum(sizes) != n:
            raise ValueError(f"group sizes {sizes} do not split a batch of {n} samples")
        cap = min(
            kernels._PACK_MAX_ELEMS // self._packed_per_sample,
            cores._HELPER_MIN_MACS // self._prefix_macs,
        )
        chunks, lo, bounds = [], 0, []
        for size in sizes:
            end = bounds[-1][1] if bounds else 0
            if bounds and end + size > cap:
                chunks.append((lo, tuple(bounds)))
                lo, bounds, end = lo + end, [], 0
            bounds.append((end, end + size))
        chunks.append((lo, tuple(bounds)))
        return chunks

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
