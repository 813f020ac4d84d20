"""The paper's optimizer: Adam + LARC + polynomial learning-rate decay.

Section III-B, reproduced exactly.  Per layer ``l`` at step ``t`` with
parameters ``v`` and gradients ``g``::

    eta_t   = (eta_0 - eta_min) * (1 - t / t_decay) + eta_min
    v_norm  = ||v_l||_2 ;  g_norm = ||g_l||_2
    eta*    = 0.002 * v_norm / g_norm   if both norms nonzero
            = 6.25e-5                    otherwise
    eta+    = min(eta*, 1)               # the LARC clip
    g*      = eta+ * g
    v_{t+1} = Adam(v_t, g*, eta_t)       # beta1=0.9, beta2=0.999, eps=1e-8

with ``eta_0 = 2e-3`` and ``eta_min = 1e-4``.  "Layer" granularity is
per parameter tensor (each weight matrix / bias vector gets its own
trust ratio), the convention of the LARS/LARC literature.

The polynomial decay (power 1) "enables larger learning rates early in
training ... but slows training down to aid in convergence ... at large
effective batch sizes"; LARC "adjust[s] the magnitude of the update
with respect to the weight norm for each layer".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.precision import DEFAULT_LOSS_SCALE, LossScaler, fp16_round

__all__ = [
    "PolynomialDecay",
    "Adam",
    "larc_scale",
    "OptimizerConfig",
    "CosmoFlowOptimizer",
]

#: Paper constants.
DEFAULT_ETA0 = 2e-3
DEFAULT_ETA_MIN = 1e-4
LARC_TRUST = 0.002
LARC_FALLBACK = 6.25e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class PolynomialDecay:
    """Linear (power=1 polynomial) decay from ``eta0`` to ``eta_min``.

    ``eta(t) = (eta0 - eta_min) * (1 - t/t_decay)^power + eta_min`` for
    ``t <= t_decay``; constant at ``eta_min`` afterwards.
    """

    eta0: float = DEFAULT_ETA0
    eta_min: float = DEFAULT_ETA_MIN
    decay_steps: int = 1000
    power: float = 1.0

    def __post_init__(self):
        if self.decay_steps < 1:
            raise ValueError("decay_steps must be >= 1")
        if self.eta0 < self.eta_min:
            raise ValueError("eta0 must be >= eta_min")

    def __call__(self, step: int) -> float:
        frac = min(max(step, 0) / self.decay_steps, 1.0)
        return (self.eta0 - self.eta_min) * (1.0 - frac) ** self.power + self.eta_min


def _l2_norm(a: np.ndarray) -> float:
    """``float(np.linalg.norm(a))`` for a real floating array, to the bit:
    the ``sqrt(dot(v, v))`` it takes, minus its argument handling."""
    v = np.asarray(a).ravel(order="K")
    return float(np.sqrt(v.dot(v)))


def larc_scale(
    param: np.ndarray,
    grad: np.ndarray,
    trust: float = LARC_TRUST,
    fallback: float = LARC_FALLBACK,
) -> float:
    """The clipped LARC local rate ``eta+ = min(eta*, 1)`` for one layer."""
    v_norm, g_norm = _l2_norm(param), _l2_norm(grad)
    if v_norm != 0.0 and g_norm != 0.0:
        eta_star = trust * v_norm / g_norm
    else:
        eta_star = fallback
    return min(eta_star, 1.0)


class Adam(object):
    """Adam (Kingma & Ba 2014) over a list of parameter arrays.

    State (first/second moments) is per parameter tensor; updates are
    applied in place.  The learning rate is supplied per step so a
    schedule can drive it.
    """

    def __init__(
        self,
        shapes: Sequence[tuple],
        beta1: float = ADAM_BETA1,
        beta2: float = ADAM_BETA2,
        eps: float = ADAM_EPS,
    ):
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(s, dtype=np.float32) for s in shapes]
        self.v = [np.zeros(s, dtype=np.float32) for s in shapes]

    def step(
        self,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
        lr: float,
    ) -> None:
        """One Adam update, in place, with bias correction."""
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError(
                f"expected {len(self.m)} params/grads, got {len(params)}/{len(grads)}"
            )
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            g = np.asarray(g, dtype=np.float32)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            p -= lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_arrays(self) -> List[np.ndarray]:
        """All optimizer state (for checkpoint/broadcast)."""
        return list(self.m) + list(self.v)


@dataclass(frozen=True)
class OptimizerConfig:
    """Full optimizer configuration (paper defaults).

    ``precision`` selects the compute/update numerics: ``"fp32"`` is
    the paper's path, untouched and bitwise identical to every prior
    release; ``"fp16"`` enables mixed-precision training — fp32 master
    weights inside the optimizer, fp16-rounded model weights and
    gradients, and dynamic loss scaling (see :mod:`repro.core.precision`).
    """

    eta0: float = DEFAULT_ETA0
    eta_min: float = DEFAULT_ETA_MIN
    decay_steps: int = 1000
    power: float = 1.0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS
    larc_trust: float = LARC_TRUST
    larc_fallback: float = LARC_FALLBACK
    use_larc: bool = True
    use_decay: bool = True
    precision: str = "fp32"
    loss_scale_init: float = DEFAULT_LOSS_SCALE
    loss_scale_growth_interval: int = 200

    def __post_init__(self):
        if self.precision not in ("fp32", "fp16"):
            raise ValueError(f"unknown precision {self.precision!r}")


class CosmoFlowOptimizer:
    """Adam + LARC + polynomial decay bound to a parameter list.

    The ``use_larc`` / ``use_decay`` switches exist for the A2 ablation
    benchmark (what large-batch training loses without them).
    """

    def __init__(self, params: Sequence[np.ndarray], config: OptimizerConfig | None = None):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        self.config = config or OptimizerConfig()
        self.schedule = PolynomialDecay(
            self.config.eta0, self.config.eta_min, self.config.decay_steps, self.config.power
        )
        self.adam = Adam(
            [p.shape for p in self.params],
            self.config.beta1,
            self.config.beta2,
            self.config.eps,
        )
        self.step_count = 0
        #: Mixed-precision state (``precision="fp16"`` only): fp32
        #: master copies of every parameter and the dynamic loss
        #: scaler.  The model's own arrays always hold the fp16-rounded
        #: masters, so forward/backward see fp16 weight values while
        #: Adam accumulates in full precision.  ``None``/``None`` in
        #: fp32 mode, where nothing below changes a single bit.
        self.scaler: Optional[LossScaler] = None
        self.master: Optional[List[np.ndarray]] = None
        if self.config.precision == "fp16":
            self.scaler = LossScaler(
                init_scale=self.config.loss_scale_init,
                growth_interval=self.config.loss_scale_growth_interval,
            )
            self.master = [p.astype(np.float32, copy=True) for p in self.params]
            for p, mp in zip(self.params, self.master):
                p[...] = fp16_round(mp)

    @property
    def precision(self) -> str:
        return self.config.precision

    def current_lr(self) -> float:
        """The global learning rate ``eta_t`` for the *next* step."""
        if self.config.use_decay:
            return self.schedule(self.step_count)
        return self.config.eta0

    def step(self, grads: Sequence[np.ndarray]) -> float:
        """Apply one update from (already averaged) gradients.

        In fp16 mode the incoming gradients are loss-scaled: they are
        unscaled here, checked for overflow (an fp16 ``inf``/``nan``
        from any rank survives the MEAN allreduce, so all ranks see the
        same verdict), and an overflowed step skips the Adam update
        while still advancing the schedule clock.  Returns the global
        learning rate used.
        """
        if len(grads) != len(self.params):
            raise ValueError(f"expected {len(self.params)} grads, got {len(grads)}")
        lr = self.current_lr()
        if self.scaler is not None:
            self._step_fp16(grads, lr)
            self.step_count += 1
            return lr
        if self.config.use_larc:
            scaled = [
                np.asarray(g) * larc_scale(p, g, self.config.larc_trust, self.config.larc_fallback)
                for p, g in zip(self.params, grads)
            ]
        else:
            scaled = [np.asarray(g) for g in grads]
        self.adam.step(self.params, scaled, lr)
        self.step_count += 1
        return lr

    def _step_fp16(self, grads: Sequence[np.ndarray], lr: float) -> None:
        """Mixed-precision update: unscale, overflow-check, update masters."""
        scaler, master = self.scaler, self.master
        unscaled = scaler.unscale(grads)
        if scaler.check_overflow(unscaled):
            # Skip-and-halve: Adam state and masters stay untouched
            # (``adam.t`` does not advance), only the schedule clock
            # and the scaler move.
            scaler.update(True)
            return
        if self.config.use_larc:
            scaled = [
                g * larc_scale(mp, g, self.config.larc_trust, self.config.larc_fallback)
                for mp, g in zip(master, unscaled)
            ]
        else:
            scaled = unscaled
        self.adam.step(master, scaled, lr)
        for p, mp in zip(self.params, master):
            p[...] = fp16_round(mp)
        scaler.update(False)

    # -- mixed-precision state transport -----------------------------------

    def state_arrays(self) -> List[np.ndarray]:
        """All optimizer state: Adam moments plus — in fp16 mode — the
        fp32 masters and the loss-scaler state vector.  The complete
        set a checkpoint or elastic resync must carry for a restarted
        rank to replay bitwise."""
        arrays = self.adam.state_arrays()
        if self.master is not None:
            arrays += list(self.master)
        if self.scaler is not None:
            arrays.append(self.scaler.state_array())
        return arrays

    def master_flat(self) -> Optional[np.ndarray]:
        """Concatenated fp32 master weights (``None`` in fp32 mode)."""
        if self.master is None:
            return None
        return np.concatenate([m.ravel() for m in self.master])

    def set_master_flat(self, flat: np.ndarray) -> None:
        """Restore the fp32 masters and re-round the model parameters,
        re-establishing the ``params == fp16(master)`` invariant."""
        if self.master is None:
            raise ValueError("optimizer has no master weights (fp32 mode)")
        flat = np.asarray(flat, dtype=np.float32)
        total = sum(m.size for m in self.master)
        if flat.size != total:
            raise ValueError(f"expected {total} master values, got {flat.size}")
        offset = 0
        for p, mp in zip(self.params, self.master):
            mp[...] = flat[offset : offset + mp.size].reshape(mp.shape)
            p[...] = fp16_round(mp)
            offset += mp.size
