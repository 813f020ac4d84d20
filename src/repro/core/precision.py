"""Mixed-precision training support: fp16 compute, fp32 masters,
dynamic loss scaling.

The paper trains in fp32 on AVX512 hardware whose fp16 path doubles
arithmetic throughput and halves activation/gradient traffic.  This
module provides the standard mixed-precision recipe on top of the
existing fp32 engine:

* **fp32 master weights** live in the optimizer
  (:class:`repro.core.optimizer.CosmoFlowOptimizer`); after every
  update the model's parameter arrays are overwritten with the
  fp16-rounded masters, so forward/backward always see exactly the
  values an fp16 weight buffer would hold while Adam accumulates in
  full precision.
* **fp16 compute**: batch inputs are rounded through fp16 before the
  forward pass and per-parameter gradients are rounded through fp16
  after the backward pass — the network's numerics are what an fp16
  kernel pipeline would produce, while the chain itself stays fp32.
* **dynamic loss scaling** (:class:`LossScaler`): gradients are
  multiplied by a running scale *before* the fp16 rounding so small
  gradients survive the format's 2^-24 floor.  A non-finite gradient
  anywhere (fp16 overflow at |g*S| > 65504) marks the step as
  overflowed: the optimizer skips the Adam update, the scale halves,
  and after ``growth_interval`` consecutive good steps it doubles back.

Distributed determinism: overflow handling never needs a separate
"found-inf" collective.  Scaled fp16 gradients are aggregated by the
same MEAN allreduce as fp32 ones; an ``inf``/``nan`` produced on any
rank propagates through the average, so every rank observes identical
non-finite aggregated gradients and takes the identical skip — in rank
order, bitwise, on every backend.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "DEFAULT_LOSS_SCALE",
    "LossScaler",
    "fp16_round",
    "any_nonfinite",
    "fp16_loss_and_gradients",
]

#: Default initial loss scale (2^16, the conventional AMP start).
DEFAULT_LOSS_SCALE = float(2**16)


def fp16_round(arr: np.ndarray) -> np.ndarray:
    """Round an fp32 array through fp16 (the value an fp16 buffer holds).

    Values beyond fp16 range become ``inf`` silently — for gradients
    that *is* the overflow signal the loss scaler watches for, not an
    error condition.
    """
    with np.errstate(over="ignore"):
        return np.asarray(arr, dtype=np.float32).astype(np.float16).astype(np.float32)


def any_nonfinite(arrays: Iterable[np.ndarray]) -> bool:
    """Whether any array carries an inf or nan (fp16 overflow marker)."""
    return any(not np.all(np.isfinite(a)) for a in arrays)


class LossScaler:
    """Dynamic loss scaling with overflow skip-and-halve.

    ``scale`` multiplies the loss (equivalently, the gradients) before
    the fp16 cast.  :meth:`update` is called once per optimizer step
    with the overflow verdict: an overflow halves the scale (clamped at
    ``min_scale``) and zeroes the good-step counter; ``growth_interval``
    consecutive good steps double it (clamped at ``max_scale``).

    All fields are plain Python floats/ints updated identically on
    every rank from the identically aggregated gradients, so scaler
    state never needs its own collective — but it *is* carried through
    checkpoints and elastic resync payloads so restarts and rejoins
    replay bitwise (see :meth:`state_array` / :meth:`load_state_array`).
    """

    #: Number of float slots in :meth:`state_array`.
    STATE_SIZE = 4

    def __init__(
        self,
        init_scale: float = DEFAULT_LOSS_SCALE,
        growth_factor: float = 2.0,
        backoff_factor: float = 0.5,
        growth_interval: int = 200,
        min_scale: float = 1.0,
        max_scale: float = float(2**24),
    ):
        if init_scale <= 0:
            raise ValueError("init_scale must be > 0")
        if growth_factor <= 1.0:
            raise ValueError("growth_factor must be > 1")
        if not 0.0 < backoff_factor < 1.0:
            raise ValueError("backoff_factor must be in (0, 1)")
        if growth_interval < 1:
            raise ValueError("growth_interval must be >= 1")
        if min_scale <= 0 or max_scale < min_scale:
            raise ValueError("need 0 < min_scale <= max_scale")
        self.scale = float(min(max(init_scale, min_scale), max_scale))
        self.growth_factor = float(growth_factor)
        self.backoff_factor = float(backoff_factor)
        self.growth_interval = int(growth_interval)
        self.min_scale = float(min_scale)
        self.max_scale = float(max_scale)
        #: Consecutive good steps since the last scale change.
        self.good_steps = 0
        #: Total overflowed (skipped) optimizer steps.
        self.skipped_steps = 0
        #: Total overflow events observed (== skipped_steps; kept
        #: separate so future partial-skip policies stay expressible).
        self.overflows = 0

    # -- per-step protocol --------------------------------------------------

    def check_overflow(self, grads: Sequence[np.ndarray]) -> bool:
        """Whether this step's (unscaled or scaled) gradients overflowed."""
        return any_nonfinite(grads)

    def unscale(self, grads: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Divide the loss scale back out (exact: scale is a power of 2)."""
        inv = np.float32(1.0 / self.scale)
        return [np.asarray(g, np.float32) * inv for g in grads]

    def update(self, overflow: bool) -> None:
        """Advance the schedule after one optimizer step."""
        if overflow:
            self.overflows += 1
            self.skipped_steps += 1
            self.good_steps = 0
            self.scale = max(self.scale * self.backoff_factor, self.min_scale)
        else:
            self.good_steps += 1
            if self.good_steps >= self.growth_interval:
                self.scale = min(self.scale * self.growth_factor, self.max_scale)
                self.good_steps = 0

    # -- state transport ----------------------------------------------------

    def state_array(self) -> np.ndarray:
        """Scaler state as one float64 vector (checkpoint/resync unit)."""
        return np.asarray(
            [self.scale, self.good_steps, self.skipped_steps, self.overflows],
            dtype=np.float64,
        )

    def load_state_array(self, state: np.ndarray) -> None:
        state = np.asarray(state, dtype=np.float64).ravel()
        if state.size != self.STATE_SIZE:
            raise ValueError(
                f"expected {self.STATE_SIZE} scaler state values, got {state.size}"
            )
        self.scale = float(state[0])
        self.good_steps = int(state[1])
        self.skipped_steps = int(state[2])
        self.overflows = int(state[3])

    def stats(self) -> dict:
        """Loggable summary (surfaced in backend run stats)."""
        return {
            "loss_scale": self.scale,
            "loss_scale_skipped_steps": self.skipped_steps,
            "loss_scale_overflows": self.overflows,
        }


def fp16_loss_and_gradients(
    model, x, y, scale: float
) -> Tuple[float, List[np.ndarray]]:
    """One fp16-compute worker step: loss plus *scaled fp16* gradients.

    The input batch is rounded through fp16, gradients are multiplied
    by ``scale`` and rounded through fp16 (where |g*S| > 65504 becomes
    ``inf`` — the overflow signal), then widened back to fp32 for the
    allreduce.  The returned loss is the true, *unscaled* loss so
    training curves stay comparable with fp32 runs.  It is
    :func:`fp16_group_loss_and_gradients` with the batch as one group.
    """
    return fp16_group_loss_and_gradients(model, x, y, None, scale)[0]


def fp16_group_loss_and_gradients(
    model, x, y, sizes, scale: float
) -> List[Tuple[float, List[np.ndarray]]]:
    """:func:`fp16_loss_and_gradients` of each group of a batch
    (:meth:`~repro.core.model.CosmoFlowModel.group_loss_and_gradients`):
    the joined input is rounded once, which rounds each sample as its
    group's own call would."""
    x16 = fp16_round(np.asarray(x, dtype=np.float32))
    s = np.float32(scale)
    return [
        (loss, [fp16_round(np.asarray(g, np.float32) * s) for g in grads])
        for loss, grads in model.group_loss_and_gradients(x16, y, sizes)
    ]
