"""One training loop, many execution backends.

The paper's per-rank workflow (Section V-A) — "gradient calculation,
gradient averaging via MPI communication, and model update from the
globally averaged gradients", plus a validation loop of "loss
calculation and global averaging" — is one program here, and
``TrainingEngine(backend, config).run()`` is the only way to start it:

* the engine owns the canonical epoch/step loop — batch fetch (``io``),
  loss+gradients (``compute``), gradient aggregation (``comm``),
  optimizer update (``optimizer``), validation, and the
  :class:`History` and ``engine.stage.*`` accounting behind the
  Figure 3 stage profile;
* an :class:`ExecutionBackend` decides only *how ranks execute and
  aggregate*: in-process (:class:`LocalBackend`), simulated on one
  replica (:class:`SteppedBackend`), or one OS thread per rank
  (:class:`ThreadedBackend`) under an
  :class:`~repro.core.elastic.ElasticConfig` — fully synchronous by
  default, fault-tolerant with checkpoint/restart when the policy
  lowers the quorum;
* mode-specific bookkeeping — learning-rate recording, divergence
  checking, checkpointing — lives in
  :class:`Callback` hooks, so the loop body contains no mode branches.

Every backend reduces through
:func:`repro.comm.communicator.reduce_arrays` in rank order, so runs
with the same seed are bitwise identical across backends — the property
the golden equivalence tests pin.  Every rank, real or simulated, sends
one gradient message a step
(:func:`~repro.comm.plugin.gradient_message`), Algorithm 2's
``mc.gradients(g)``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

import numpy as np

from repro.comm.communicator import Communicator, ReduceOp, reduce_arrays
from repro.comm.errors import QuorumLostError
from repro.comm.plugin import PluginConfig, gradient_message
from repro.comm.serial import SteppedGroup
from repro.core.elastic import MPI_LIKE, ElasticConfig
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer, OptimizerConfig
from repro.obs.callback import TraceCallback
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.utils.logging import get_logger
from repro.utils.packing import unflatten_like

if TYPE_CHECKING:  # what only the thread, elastic and fault paths load
    from repro.comm.compression import GradientCompressor
    from repro.faults.injector import FaultInjector

__all__ = [
    "History",
    "EngineConfig",
    "Callback",
    "CallbackList",
    "LRRecorder",
    "DivergenceCheck",
    "CheckpointCallback",
    "RankContext",
    "RankStream",
    "steps_per_epoch",
    "EngineResult",
    "ExecutionBackend",
    "LocalBackend",
    "SteppedBackend",
    "ThreadedBackend",
    "TrainingEngine",
]

_log = get_logger("core.engine")


@dataclass
class History:
    """Per-epoch training curves.

    ``effective_batch`` tracks the *global* effective batch size
    (``batch_size × active ranks``) the epoch ended with — flat at
    ``batch_size × n_ranks`` in healthy runs, dipping when the elastic
    group shrinks and recovering when evicted ranks (or warm spares)
    are readmitted.
    """

    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    epoch_time: List[float] = field(default_factory=list)
    lr: List[float] = field(default_factory=list)
    effective_batch: List[float] = field(default_factory=list)

    def as_dict(self) -> Dict[str, List[float]]:
        return {
            "train_loss": self.train_loss,
            "val_loss": self.val_loss,
            "epoch_time": self.epoch_time,
            "lr": self.lr,
            "effective_batch": self.effective_batch,
        }


@dataclass(frozen=True)
class EngineConfig:
    """Backend-independent training-loop configuration.

    ``divergence_threshold`` bounds the cross-rank parameter spread the
    synchronous-training invariant tolerates (checked by
    :class:`DivergenceCheck` on multi-rank backends).
    """

    epochs: int = 10
    batch_size: int = 1
    seed: Optional[int] = 0
    validate: bool = True
    divergence_threshold: float = 1e-5

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.divergence_threshold < 0:
            raise ValueError("divergence_threshold must be >= 0")


# ---------------------------------------------------------------------------
# Callbacks
# ---------------------------------------------------------------------------


class Callback:
    """Observer hooks around the engine loop.

    Per-rank hooks receive the executing rank's :class:`RankContext`;
    driver hooks (``on_restart``, ``on_run_end``) fire once per run in
    the launching thread.  Override what you need; defaults are no-ops.
    """

    def on_run_start(self, rc: "RankContext") -> None:  # noqa: B027
        """A rank is about to enter its epoch loop."""

    def on_epoch_start(self, rc: "RankContext") -> None:  # noqa: B027
        """``rc.epoch`` is set; training steps have not started."""

    def on_step_end(self, rc: "RankContext") -> None:  # noqa: B027
        """One optimizer update applied; ``rc.step``/``rc.last_loss`` set."""

    def on_validation(self, rc: "RankContext") -> None:  # noqa: B027
        """Validation finished; ``rc.last_val_loss`` set."""

    def on_epoch_end(self, rc: "RankContext") -> None:  # noqa: B027
        """Epoch curves appended to ``rc.history``."""

    def on_rank_end(self, rc: "RankContext") -> None:  # noqa: B027
        """A rank finished all epochs (still inside its group)."""

    def on_rejoin(self, rc: "RankContext") -> None:  # noqa: B027
        """A readmitted rank's context is resynced and about to enter
        the loop mid-run (elastic grow-back)."""

    def on_restart(self, engine: "TrainingEngine", restarts: int, exc: BaseException) -> None:  # noqa: B027
        """The elastic driver is relaunching after a lost quorum."""

    def on_run_end(self, engine: "TrainingEngine", result: "EngineResult") -> None:  # noqa: B027
        """The backend finished; ``result`` is about to be returned."""


class CallbackList(Callback):
    """Dispatches every hook to an ordered list of callbacks."""

    def __init__(self, callbacks: Sequence[Callback] = ()):
        self.callbacks = list(callbacks)

    def on_run_start(self, rc):
        for cb in self.callbacks:
            cb.on_run_start(rc)

    def on_epoch_start(self, rc):
        for cb in self.callbacks:
            cb.on_epoch_start(rc)

    def on_step_end(self, rc):
        for cb in self.callbacks:
            cb.on_step_end(rc)

    def on_validation(self, rc):
        for cb in self.callbacks:
            cb.on_validation(rc)

    def on_epoch_end(self, rc):
        for cb in self.callbacks:
            cb.on_epoch_end(rc)

    def on_rank_end(self, rc):
        for cb in self.callbacks:
            cb.on_rank_end(rc)

    def on_rejoin(self, rc):
        for cb in self.callbacks:
            cb.on_rejoin(rc)

    def on_restart(self, engine, restarts, exc):
        for cb in self.callbacks:
            cb.on_restart(engine, restarts, exc)

    def on_run_end(self, engine, result):
        for cb in self.callbacks:
            cb.on_run_end(engine, result)


class LRRecorder(Callback):
    """Appends the scheduled learning rate to ``history.lr`` each epoch
    (installed by default)."""

    def on_epoch_start(self, rc):
        rc.history.lr.append(rc.optimizer.current_lr())


class DivergenceCheck(Callback):
    """Measures the cross-rank parameter spread after the last epoch.

    Synchronous training keeps every replica bitwise identical; the
    spread (max |MAX - MIN| over all parameters, via two allreduces
    among the surviving ranks) should be ~0.  The engine raises if it
    exceeds ``EngineConfig.divergence_threshold``.
    """

    def on_rank_end(self, rc):
        if rc.comm is None:
            return
        flat = rc.model.get_flat_parameters()
        spread = rc.comm.allreduce(flat, ReduceOp.MAX) - rc.comm.allreduce(
            flat, ReduceOp.MIN
        )
        rc.divergence = float(np.max(np.abs(spread)))


class CheckpointCallback(Callback):
    """Crash-safe checkpoint at the end of every epoch.

    Only the keeper rank (lowest surviving rank) writes.  File names
    embed the zero-padded global step so
    :func:`repro.core.checkpoint.load_latest_checkpoint` resumes from
    the newest good one.  Every checkpoint is kept.
    """

    def __init__(self, directory):
        self.directory = Path(directory)

    def on_epoch_end(self, rc):
        if not rc.is_keeper:
            return
        from repro.core.checkpoint import checkpoint_path, save_checkpoint

        save_checkpoint(
            checkpoint_path(self.directory, rc.global_step(rc.steps_per_epoch)),
            rc.model,
            rc.optimizer,
            history=rc.history,
        )


# ---------------------------------------------------------------------------
# The epoch stream
# ---------------------------------------------------------------------------


def steps_per_epoch(data, n_ranks: int, batch: int) -> int:
    """Steps in one epoch: one pass over the smallest shard,
    ``ceil(min_r len(shard_r) / batch)``.  Algorithm 2's
    ``N_samples / n_ranks`` at one sample per rank — round-robin shards
    at batch 1 give ``N // n_ranks``."""
    if n_ranks == 1:
        smallest = len(data)
    else:
        smallest = min(len(data.shard(r, n_ranks)) for r in range(n_ranks))
    return -(-smallest // batch)


class RankStream:
    """One rank's training batches: each epoch one shuffled pass over its
    shard (``shard.batches(batch, rng)``), cut to ``steps_per_epoch``.

    :meth:`next` opens the epoch's pass at its first draw and closes it
    at the epoch's last (a reader's threads and counters finish with
    the epoch); within an epoch it starts a new pass only when the
    current one runs short (a ``strict=False`` record skipped after the
    dataset counted it), and a shard that yields nothing raises.
    :meth:`seek` replays the draws a restarted or readmitted rank
    missed, so its stream stands where an uninterrupted rank's does.
    """

    def __init__(self, shard, rng, batch: int, steps_per_epoch: int):
        self.shard = shard
        self.rng = rng
        self.batch = batch
        self.steps_per_epoch = steps_per_epoch
        self._epoch: Optional[int] = None
        self._drawn = 0
        self._pass = None

    def open(self) -> None:
        """Start one shuffled pass over the shard."""
        self._pass = self.shard.batches(self.batch, rng=self.rng)

    def next(self, epoch: int):
        """The next batch of ``epoch``."""
        if epoch != self._epoch:
            self._epoch, self._drawn = epoch, 0
            self.open()
        batch = next(self._pass, None)
        if batch is None:
            self.open()
            batch = next(self._pass, None)
            if batch is None:
                raise RuntimeError("data shard yielded no batches")
        self._drawn += 1
        if self._drawn == self.steps_per_epoch:
            self._pass.close()
        return batch

    def seek(self, epochs: int, steps: int = 0) -> None:
        """Replay the draws of ``epochs`` whole epochs and the first
        ``steps`` of the next."""
        for epoch in range(epochs):
            for _ in range(self.steps_per_epoch):
                self.next(epoch)
        for _ in range(steps):
            self.next(epochs)


# ---------------------------------------------------------------------------
# Per-rank execution context
# ---------------------------------------------------------------------------


class RankContext:
    """Everything one executing worker sees: its model replica,
    optimizer, batch stream, validation views, communicator and
    gradient compressor, and curves.

    The engine drives the loop through three verbs — ``fetch`` (the
    step's batch from the rank's :class:`RankStream`), ``compute``
    (loss + gradients), ``aggregate`` (global averaging) — which
    backends specialize without the loop body branching on mode.
    """

    def __init__(
        self,
        engine: "TrainingEngine",
        *,
        model: CosmoFlowModel,
        optimizer: CosmoFlowOptimizer,
        stream: Optional[RankStream],
        steps_per_epoch: int,
        val_views: Sequence = (),
        rank: int = 0,
        n_ranks: int = 1,
        batch_size: int = 1,
        val_batch_size: int = 1,
        comm: Optional[Communicator] = None,
        compressor: Optional["GradientCompressor"] = None,
        callbacks: Optional[CallbackList] = None,
        history: Optional[History] = None,
        start_epoch: int = 0,
    ):
        self.bind(engine, callbacks if callbacks is not None else CallbackList())
        self.model = model
        self.optimizer = optimizer
        self.stream = stream
        #: The validation sets this context evaluates, one per rank it
        #: runs (empty: no validation).
        self.val_views = list(val_views)
        self.rank = rank
        self.n_ranks = n_ranks
        self.batch_size = batch_size
        self.val_batch_size = val_batch_size
        self.steps_per_epoch = steps_per_epoch
        self.comm = comm
        #: This rank's gradient compressor (``None``: the fp32 message
        #: goes as is); its top-k residual is the rank's own state.
        self.compressor = compressor
        self.history = history if history is not None else History()
        self.start_epoch = start_epoch
        self.epoch = start_epoch
        self.step = -1
        self.last_loss = float("nan")
        self.last_val_loss = float("nan")
        self.divergence: Optional[float] = None
        #: Steps to skip at the start of the first epoch — a readmitted
        #: rank resumes mid-epoch at the step it was admitted at.
        self.resume_step = 0
        #: Whether this context was built from a mid-run state resync.
        self.rejoined = False
        #: Stage time of the current epoch, for :meth:`account_untracked`.
        self._epoch_tracked = 0.0

    def bind(self, engine: "TrainingEngine", callbacks: CallbackList) -> None:
        """Attach this context to the engine running it: its hooks, and
        the registry and tracer its stage windows and records go to."""
        self.engine = engine
        self.callbacks = callbacks
        self._stages: Dict[str, tuple] = {}
        self._records = None

    # -- capabilities -----------------------------------------------------

    @property
    def aggregates(self) -> bool:
        """Whether this rank participates in gradient/loss averaging."""
        return self.comm is not None

    @property
    def is_keeper(self) -> bool:
        """Whether this rank is responsible for run-level artifacts
        (checkpoints, the returned model): the lowest surviving rank."""
        active = getattr(self.comm, "active_ranks", None)
        if active is not None:
            return self.rank == min(active)
        return self.rank == 0

    def effective_batch(self) -> int:
        """The current *global* effective batch size: per-rank batch
        size times the number of participating ranks (membership for
        rank groups, the static count otherwise).

        For rank groups this reads the membership latched by the
        last *completed* collective rather than the live active set:
        between two steps another rank may already have admitted a
        joiner for the next boundary, and a live read would leak that
        future membership into this epoch's accounting."""
        members = getattr(self.comm, "last_members", None)
        n = len(members) if members is not None else self.n_ranks
        return self.batch_size * n

    def global_step(self, step: int) -> int:
        """Step ``step`` of this epoch, counted from the run's first."""
        return self.epoch * self.steps_per_epoch + step

    # -- the three verbs --------------------------------------------------

    def fetch(self, step: int):
        """The step's batch."""
        return self.stream.next(self.epoch)

    def _loss_and_grads(self, x, y):
        """One worker gradient computation: :meth:`_group_loss_and_grads`
        with the batch as one group."""
        return self._group_loss_and_grads(x, y, None)[0]

    def _group_loss_and_grads(self, x, y, sizes):
        """Each group's loss and gradients
        (:meth:`~repro.core.model.CosmoFlowModel.group_loss_and_gradients`),
        honoring the optimizer's precision mode: fp32 calls straight
        through; fp16 rounds inputs/gradients through half precision with
        the dynamic loss scale applied (see :mod:`repro.core.precision`)."""
        scaler = getattr(self.optimizer, "scaler", None)
        if scaler is not None:
            from repro.core.precision import fp16_group_loss_and_gradients

            return fp16_group_loss_and_gradients(self.model, x, y, sizes, scaler.scale)
        return self.model.group_loss_and_gradients(x, y, sizes)

    def compute(self, batch):
        """Loss and gradients for one batch; returns ``(loss, grads, n)``."""
        x, y = batch
        loss, grads = self._loss_and_grads(x, y)
        return loss, grads, len(x)

    def aggregate(self, loss, grads):
        """Globally average the step's gradients — one message, one
        allreduce — and its loss."""
        flat = self.comm.allreduce(gradient_message(grads, self.compressor), ReduceOp.MEAN)
        return self.aggregate_scalar([loss]), unflatten_like(flat, grads)

    def aggregate_scalar(self, values: List[float]) -> float:
        """Globally average one scalar per rank this context runs — a
        step's loss, a validation view's mean (the validation loop's
        "loss calculation and global averaging") — as float64."""
        (value,) = values
        return float(self.comm.allreduce(np.asarray([value], dtype=np.float64), ReduceOp.MEAN)[0])

    # -- accounting -------------------------------------------------------

    @contextmanager
    def timed_stage(self, name: str, step: Optional[int] = None):
        """Time one stage region into the engine's metrics registry
        (``engine.stage.<name>.seconds`` / ``.count``) and its tracer.

        One ``perf_counter`` window feeds both sinks, so the durations
        in an exported trace sum to exactly the registry's stage totals
        — ``trace summarize`` and Figure 3 agree by construction, not
        by coincidence.
        """
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._epoch_tracked += dt
            self._record_stage(name, t0, dt, step=step)

    def _record_stage(self, name: str, t0: float, dt: float, **args) -> None:
        stage = self._stages.get(name)
        if stage is None:
            m = self.engine.metrics
            stage = self._stages[name] = (
                m.gauge(f"engine.stage.{name}.seconds"),
                m.counter(f"engine.stage.{name}.count"),
            )
        seconds, count = stage
        seconds.add(dt)
        count.add(1)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.complete(name, t0, dt, cat="engine", track=self.rank, **args, epoch=self.epoch)

    def count_records(self, n: int) -> None:
        """Add one step's samples to the run's ``engine.records``: each
        executing rank adds its own (a stepped context its simulated
        ranks' sum), so every backend totals the same for one run."""
        if self._records is None:
            self._records = self.engine.metrics.counter("engine.records")
        self._records.add(n)

    def account_untracked(self, elapsed: float) -> None:
        """Attribute the epoch's loop/framework time no stage captured —
        Figure 3's "TensorFlow framework time" analogue — to ``other``."""
        other = max(0.0, elapsed - self._epoch_tracked)
        self._epoch_tracked = 0.0
        self._record_stage("other", time.perf_counter() - other, other)


class _SteppedContext(RankContext):
    """K simulated ranks on one model replica.

    Synchronous SGD keeps every replica bitwise identical between
    steps, so one model instance can compute all k per-rank gradients
    and apply their average, taken in rank order, once.  Each rank's
    loss and gradients are what its own replica computes — the ranks'
    batches run as the groups of one pass
    (:meth:`~repro.core.model.CosmoFlowModel.group_loss_and_gradients`),
    which keeps every rank's gradients apart — so a stepped run equals
    threaded and process ranks bit for bit.  It is not bitwise
    single-process SGD at batch k: a batch-k GEMM sums over samples
    inside BLAS, in an order of its own.
    """

    def __init__(self, engine, *, group: SteppedGroup, streams, compressors, **kwargs):
        super().__init__(engine, stream=None, **kwargs)
        self.group = group
        #: One :class:`RankStream` per virtual rank.
        self.streams = streams
        #: One gradient compressor (or ``None``) per virtual rank: the
        #: top-k error-feedback residual is per-rank state, so k
        #: simulated ranks need k residuals to stay
        #: bitwise identical to k threads each owning one.
        self.compressors = compressors

    @property
    def aggregates(self) -> bool:
        return True

    def fetch(self, step):
        return [stream.next(self.epoch) for stream in self.streams]

    def compute(self, batch):
        sizes = [len(x) for x, _ in batch]
        x = np.concatenate([x for x, _ in batch])
        y = np.concatenate([y for _, y in batch])
        results = self._group_loss_and_grads(x, y, sizes)
        return [loss for loss, _ in results], [grads for _, grads in results], len(x)

    def aggregate(self, losses, grad_lists):
        # One message per virtual rank; the group reduces them in rank order.
        flats = [gradient_message(g, c) for g, c in zip(grad_lists, self.compressors)]
        avg_flat = self.group.allreduce(flats, ReduceOp.MEAN)[0]
        return float(np.mean(losses)), unflatten_like(avg_flat, grad_lists[0])

    def aggregate_scalar(self, values):
        # The k ranks' validation means, averaged as real ranks average
        # a scalar: float64 1-vectors in rank order.
        # Straight through reduce_arrays, so `reductions` counts
        # gradient reductions only.
        means = [np.asarray([v], dtype=np.float64) for v in values]
        return float(reduce_arrays(means, ReduceOp.MEAN)[0])


class _ElasticContext(RankContext):
    """One rank of a thread (or process) group: cooperative fault hooks
    and grow-back admission servicing.  With an empty fault plan and no
    spares every hook is a fast path, which keeps fault-free runs
    bitwise identical to the stepped backend."""

    def __init__(self, engine, *, injector, **kwargs):
        super().__init__(engine, **kwargs)
        self.injector = injector

    def fetch(self, step):
        # Top of step is where a real failure detector would observe
        # missed heartbeats; step-keyed faults fire here — and where
        # scheduled recoveries are serviced, so a joiner is admitted at
        # a step (= generation) boundary.
        global_step = self.global_step(step)
        self._begin_step(global_step)
        self.injector.maybe_crash(self.rank, global_step)
        stall = self.injector.hang_delay(self.rank, global_step)
        if stall > 0:
            time.sleep(stall)
        return super().fetch(step)

    def _begin_step(self, global_step: int) -> None:
        """The step boundary: admit whom the membership decides, then
        key this rank's step-keyed faults on ``global_step``."""
        self._service_rejoins(global_step)
        self.injector.begin_step(self.rank, global_step)

    def _service_rejoins(self, global_step: int) -> None:
        """Admit, as this step boundary's donor, whom the membership
        decides (:mod:`repro.comm.membership`).

        Only the donor consumes the recovery events due here, so every
        event is decided once, by the same rank on every transport; any
        donor's state is a valid resync, because synchronous SGD keeps
        every replica bitwise identical.
        """
        from repro.comm.membership import donor

        comm = self.comm
        if donor(comm.last_members) != self.rank:
            return
        events = (
            self.injector.recoveries_due(global_step)
            if self.injector.has_recoveries
            else ()
        )
        due = comm.joins_due(events)
        if not due:
            return
        payload = self._pack_resync(global_step)
        for rank, spare in due:
            comm.admit(rank, payload, spare=spare)

    def _pack_resync(self, global_step: int) -> Dict[str, np.ndarray]:
        """Snapshot this replica's full training state for a joiner.

        Parameters, Adam slots, step/epoch counters, and the History
        curves — everything a readmitted rank needs to be bitwise
        indistinguishable from a rank that never left.  The ``lr``
        curve is trimmed to the completed epochs: the joiner's own
        ``LRRecorder`` re-records the rejoin epoch's rate.
        """
        from repro.core.checkpoint import pack_training_state

        n_done = len(self.history.train_loss)
        completed = History(**{k: v[:n_done] for k, v in self.history.as_dict().items()})
        payload = pack_training_state(self.model, self.optimizer, completed)
        payload["epoch"] = np.int64(self.epoch)
        payload["resume_step"] = np.int64(global_step % self.steps_per_epoch)
        return payload


# ---------------------------------------------------------------------------
# Execution backends
# ---------------------------------------------------------------------------


def _precision_stats(optimizer) -> Dict[str, Any]:
    """Loss-scaler counters for a backend's run stats (empty in fp32)."""
    scaler = getattr(optimizer, "scaler", None)
    return scaler.stats() if scaler is not None else {}


def _compression_stats(c0) -> Dict[str, Any]:
    """Rank 0's compressor counters for a backend's run stats.

    Every rank compresses the same number of same-sized messages, so
    rank 0's per-rank counters are representative and — crucially —
    identical across the stepped/threaded/process backends (a sum over
    the stepped backend's virtual ranks would not be comparable to the
    single compressor a threaded or process rank owns).  Empty for
    mode "none": the uncompressed stats dict stays byte-for-byte what
    it was before compression existed.
    """
    if c0 is None:
        return {}
    return {
        "compression": c0.name,
        "compression_calls": c0.stats.calls,
        "compression_bytes_in": c0.stats.bytes_in,
        "compression_bytes_wire": c0.stats.bytes_wire,
        "compression_bytes_saved": c0.stats.bytes_saved,
        "compression_ratio": c0.stats.ratio,
    }


@dataclass
class EngineResult:
    """What a backend hands back to the engine."""

    history: History
    model: Optional[CosmoFlowModel]
    stats: Dict[str, Any] = field(default_factory=dict)
    divergence: Optional[float] = None


class ExecutionBackend:
    """How ranks execute and aggregate; the engine owns everything else."""

    def callbacks(self) -> List[Callback]:
        """Backend-supplied callbacks (divergence check, checkpointing)."""
        return []

    def execute(
        self,
        engine: "TrainingEngine",
        callbacks: CallbackList,
        epochs: Optional[int] = None,
    ) -> EngineResult:
        raise NotImplementedError


class LocalBackend(ExecutionBackend):
    """Single in-process rank — the paper's single-node run, optionally
    averaging through a one-rank communicator (``comm=
    SerialCommunicator()``: "enable the CPE ML plugin even at the single
    node").

    The context is created once and reused across ``execute`` calls, so
    history and the shuffle RNG stream accumulate over repeated runs;
    each run's stage time and records go to the engine running it.
    """

    def __init__(
        self,
        model: CosmoFlowModel,
        optimizer: CosmoFlowOptimizer,
        train_data,
        val_data=None,
        comm: Optional[Communicator] = None,
        rng=None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.train_data = train_data
        self.val_data = val_data
        self.comm = comm
        self.rng = rng
        self._rc: Optional[RankContext] = None

    def context(self, engine: "TrainingEngine", callbacks: CallbackList) -> RankContext:
        if self._rc is None:
            cfg = engine.config
            rng = self.rng
            if rng is None:
                # The engine-native per-rank stream convention ([seed,
                # rank]), matching the distributed backends at k=1.
                rng = (
                    np.random.default_rng([cfg.seed, 0])
                    if cfg.seed is not None
                    else np.random.default_rng()
                )
            steps = steps_per_epoch(self.train_data, 1, cfg.batch_size)
            self._rc = RankContext(
                engine,
                model=self.model,
                optimizer=self.optimizer,
                stream=RankStream(self.train_data, rng, cfg.batch_size, steps),
                steps_per_epoch=steps,
                val_views=[self.val_data] if self.val_data is not None else [],
                batch_size=cfg.batch_size,
                val_batch_size=cfg.batch_size,
                comm=self.comm,
                callbacks=callbacks,
            )
        else:
            self._rc.bind(engine, callbacks)
        return self._rc

    def execute(self, engine, callbacks, epochs=None):
        rc = self.context(engine, callbacks)
        hist = engine.rank_loop(rc, epochs=epochs)
        return EngineResult(history=hist, model=self.model)


class _GroupBackend(ExecutionBackend):
    """Shared construction for the data-parallel backends."""

    def __init__(
        self,
        model_config,
        train_data,
        val_data=None,
        optimizer_config: Optional[OptimizerConfig] = None,
        n_ranks: int = 2,
        plugin_config: Optional[PluginConfig] = None,
    ):
        if n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if len(train_data) < n_ranks:
            raise ValueError(
                f"dataset of {len(train_data)} samples cannot feed "
                f"{n_ranks} ranks (the paper: 'the dataset must have "
                "substantially more samples than the target concurrency')"
            )
        self.model_config = model_config
        self.train_data = train_data
        self.val_data = val_data
        self.optimizer_config = optimizer_config
        self.n_ranks = n_ranks
        self.plugin_config = plugin_config or PluginConfig()

    def _steps_per_epoch(self, engine: "TrainingEngine") -> int:
        return steps_per_epoch(self.train_data, self.n_ranks, engine.config.batch_size)

    def _stream(self, engine: "TrainingEngine", rank: int, steps: int) -> RankStream:
        """Rank ``rank``'s shard under its ``[seed, rank]`` shuffle stream."""
        cfg = engine.config
        shard = self.train_data.shard(rank, self.n_ranks)
        return RankStream(shard, np.random.default_rng([cfg.seed, rank]), cfg.batch_size, steps)

    def _replica(self, engine: "TrainingEngine"):
        """A freshly seeded model and its optimizer."""
        model = CosmoFlowModel(self.model_config, seed=engine.config.seed)
        return model, CosmoFlowOptimizer(model.parameter_arrays(), self._opt_config(engine))

    def _opt_config(self, engine: "TrainingEngine") -> OptimizerConfig:
        if self.optimizer_config is not None:
            return self.optimizer_config
        return OptimizerConfig(
            decay_steps=max(1, engine.config.epochs * self._steps_per_epoch(engine))
        )

    def _val_views(self, ranks) -> list:
        """The validation views of ``ranks``: each rank's shard, or the
        whole set for every rank when it has fewer samples than ranks."""
        val = self.val_data
        if val is None:
            return []
        if len(val) < self.n_ranks:
            return [val for _ in ranks]
        return [val.shard(r, self.n_ranks) for r in ranks]


class SteppedBackend(_GroupBackend):
    """K simulated ranks in the calling thread, their batches run as the
    groups of one pass — exact SSGD emulation that scales to thousands of
    virtual ranks (the Figure 5 convergence study's vehicle)."""

    #: The stale backend substitutes its context over a ``StaleGroup``.
    context_cls = _SteppedContext

    def _make_context(self, engine, group, callbacks) -> _SteppedContext:
        """All simulated ranks on one replica: per-rank shards, RNG
        streams and compressors, shared model and optimizer."""
        k = self.n_ranks
        steps = self._steps_per_epoch(engine)
        model, optimizer = self._replica(engine)
        return self.context_cls(
            engine,
            group=group,
            streams=[self._stream(engine, r, steps) for r in range(k)],
            val_views=self._val_views(range(k)),
            compressors=[self.plugin_config.build_compressor() for _ in range(k)],
            model=model,
            optimizer=optimizer,
            n_ranks=k,
            batch_size=engine.config.batch_size,
            val_batch_size=1,
            steps_per_epoch=steps,
            callbacks=callbacks,
        )

    def _result(self, rc, hist: History, stats: Dict[str, Any]) -> EngineResult:
        stats.update(_precision_stats(rc.optimizer))
        stats.update(_compression_stats(rc.compressors[0]))
        return EngineResult(history=hist, model=rc.model, stats=stats)

    def execute(self, engine, callbacks, epochs=None):
        group = SteppedGroup(self.n_ranks)
        rc = self._make_context(engine, group, callbacks)
        hist = engine.rank_loop(rc, epochs=epochs)
        stats = {"reductions": group.reductions, "bytes_reduced": group.bytes_reduced}
        return self._result(rc, hist, stats)


def _restart_or_raise(backend, engine, callbacks, exc: QuorumLostError) -> None:
    """The elastic drivers' one answer to a lost quorum: count the
    restart, re-raise ``exc`` when the policy has no checkpoint
    directory or no restart budget left, otherwise fire ``on_restart``
    (the caller relaunches at once)."""
    el = backend.elastic
    backend.restarts += 1
    can_restart = el.checkpoint_dir is not None and backend.restarts <= el.max_restarts
    _log.warning(
        "quorum lost (%d survivors); %s",
        len(exc.survivors),
        f"restart {backend.restarts}/{el.max_restarts} from checkpoint"
        if can_restart
        else "giving up",
    )
    if not can_restart:
        raise exc
    callbacks.on_restart(engine, backend.restarts, exc)


class ThreadedBackend(_GroupBackend):
    """One OS thread per rank with independent model replicas — the
    paper's actual execution structure at small scale — over a
    :class:`~repro.comm.elastic.ThreadedGroup`.

    ``elastic`` is the fault-tolerance policy.  The default is
    :data:`~repro.core.elastic.MPI_LIKE`, the paper's fully synchronous
    mode: every rank is needed, so any death fails the run.  A policy
    with a lower quorum evicts crashed or hung ranks and renormalizes
    the gradient average over the survivors; quorum loss restarts from
    the last crash-safe checkpoint with the full rank count
    (replacement-node semantics).  Fault-free runs are bitwise
    identical under every policy.  ``injector`` is the seeded fault
    source (default: none).
    """

    #: Context class of every rank; the real-process backend's workers
    #: substitute a subclass.
    context_cls = _ElasticContext

    def __init__(
        self,
        *args,
        elastic: Optional[ElasticConfig] = None,
        injector: Optional[FaultInjector] = None,
        **kwargs,
    ):
        from repro.faults.injector import FaultInjector

        super().__init__(*args, **kwargs)
        self.elastic = elastic or MPI_LIKE
        self.injector = injector or FaultInjector()
        self.restarts = 0

    def callbacks(self):
        cbs: List[Callback] = [DivergenceCheck()]
        if self.elastic.checkpoint_dir is not None:
            cbs.append(CheckpointCallback(self.elastic.checkpoint_dir))
        return cbs

    def _rank_context(self, engine, comm, callbacks, model, optimizer, **extra):
        """One real rank over ``comm``: its shard under its ``[seed,
        rank]`` shuffle stream, its own replica and compressor."""
        steps = self._steps_per_epoch(engine)
        return self.context_cls(
            engine,
            injector=self.injector,
            model=model,
            optimizer=optimizer,
            stream=self._stream(engine, comm.rank, steps),
            steps_per_epoch=steps,
            val_views=self._val_views([comm.rank]),
            rank=comm.rank,
            n_ranks=self.n_ranks,
            batch_size=engine.config.batch_size,
            val_batch_size=1,
            comm=comm,
            compressor=self.plugin_config.build_compressor(),
            callbacks=callbacks,
            **extra,
        )

    def _make_context(self, engine, comm, callbacks) -> RankContext:
        model, optimizer = self._replica(engine)
        history = History()
        start_epoch = 0
        if self.elastic.checkpoint_dir is not None:
            from repro.core.checkpoint import load_latest_checkpoint

            # Self-healing resume: a corrupt newest checkpoint falls
            # back to the newest previous good one instead of killing
            # the restart.  Restores the completed epochs' curves too,
            # so a restarted run's History spans every epoch, not just
            # the ones after the resume point.
            ckpt = load_latest_checkpoint(
                self.elastic.checkpoint_dir, model, optimizer, history=history
            )
            if ckpt is not None:
                start_epoch = optimizer.step_count // self._steps_per_epoch(engine)
        # Pre-training phase: step-keyed faults must not fire on the
        # initial parameter broadcast.
        self.injector.begin_step(comm.rank, -1)
        rc = self._rank_context(
            engine, comm, callbacks, model, optimizer, history=history, start_epoch=start_epoch
        )
        # Algorithm 2 preamble: rank 0's parameters to all ranks as one
        # flat message (after a restart this also re-synchronizes any
        # replica drift).
        model.set_flat_parameters(
            comm.bcast(model.get_flat_parameters() if comm.rank == 0 else None, root=0)
        )
        rc.stream.seek(start_epoch)
        return rc

    def _make_rejoin_context(self, engine, comm, callbacks, payload) -> RankContext:
        """Build a readmitted rank's context from its resync payload.

        Everything — parameters, Adam slots, counters, curves — comes
        from the donated state; the joiner never touches the group's
        collectives during construction (a broadcast here would desync
        the survivors' lockstep collective schedule).  The batch stream
        replays the completed epochs plus the partial rejoin epoch, so
        from its first step the rank is bitwise indistinguishable from
        one that never left.
        """
        from repro.core.checkpoint import restore_training_state

        model, optimizer = self._replica(engine)
        history = History()
        restore_training_state(payload, model, optimizer, history)
        epoch = int(payload["epoch"])
        resume_step = int(payload["resume_step"])
        # Pre-loop phase for this rank: step-keyed faults key on the
        # steps it actually runs.
        self.injector.begin_step(comm.rank, -1)
        rc = self._rank_context(
            engine, comm, callbacks, model, optimizer, history=history, start_epoch=epoch
        )
        rc.rejoined = True
        rc.resume_step = resume_step
        rc.stream.seek(epoch, resume_step)
        return rc

    def execute(self, engine, callbacks, epochs=None):
        el = self.elastic
        if el.checkpoint_dir is not None:
            Path(el.checkpoint_dir).mkdir(parents=True, exist_ok=True)
        self.restarts = 0

        def rank_body(comm):
            rc = self._make_context(engine, comm, callbacks)
            engine.rank_loop(rc, epochs=epochs)
            return rc

        def joiner_body(comm):
            payload = comm.await_admission()
            rc = self._make_rejoin_context(engine, comm, callbacks, payload)
            callbacks.on_rejoin(rc)
            engine.rank_loop(rc, epochs=epochs)
            return rc

        from repro.comm.elastic import ThreadedGroup

        while True:
            group = ThreadedGroup(
                self.n_ranks,
                timeout_s=el.timeout_s,
                quorum=el.resolve_quorum(self.n_ranks),
                injector=self.injector,
                join_timeout_s=el.join_timeout_s,
                tracer=engine.tracer,
                spares=el.spares,
                auto_respawn=el.auto_respawn,
            )
            try:
                results = group.run(rank_body, joiner_fn=joiner_body)
                break
            except QuorumLostError as exc:
                # Relaunch with the full rank count (replacement nodes).
                # Already-consumed fault events do not re-fire.
                _restart_or_raise(self, engine, callbacks, exc)

        alive = [rc for rc in results if rc is not None]
        # Prefer a continuously-active context for the reported curves:
        # a readmitted rank's History is resync-reconstructed and its
        # rejoin-epoch lr entry reflects the mid-epoch admission point.
        rc0 = next((rc for rc in alive if not rc.rejoined), alive[0])
        stats = {
            **group.stats(),
            "max_param_divergence": rc0.divergence,
            "restarts": self.restarts,
            "faults_injected": self.injector.summary(),
        }
        stats.update(_precision_stats(rc0.optimizer))
        stats.update(_compression_stats(rc0.compressor))
        return EngineResult(
            history=rc0.history, model=rc0.model, stats=stats, divergence=rc0.divergence
        )


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class TrainingEngine:
    """The canonical epoch/step loop over an :class:`ExecutionBackend`.

    The step body is mode-free by construction: fetch (``io``) →
    loss+gradients (``compute``) → global averaging (``comm``) →
    optimizer update (``optimizer``), with validation and the Figure-3
    stage accounting handled identically for every backend.
    """

    def __init__(
        self,
        backend: ExecutionBackend,
        config: Optional[EngineConfig] = None,
        callbacks: Sequence[Callback] = (),
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.backend = backend
        self.config = config or EngineConfig()
        self.callbacks = list(callbacks)
        #: Observability sinks.  The tracer defaults to the shared
        #: no-op :data:`~repro.obs.tracer.NULL_TRACER` (zero cost); the
        #: metrics registry is always live — its counters are cheap and
        #: the cross-backend consistency tests read them.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.history = History()
        self.group_stats: Dict[str, Any] = {}
        self._final_model: Optional[CosmoFlowModel] = None

    # -- driver -----------------------------------------------------------

    def build_callbacks(self) -> CallbackList:
        """Default hooks + backend hooks + user hooks, in firing order."""
        return CallbackList(
            [
                LRRecorder(),
                TraceCallback(self.tracer, self.metrics),
                *self.backend.callbacks(),
                *self.callbacks,
            ]
        )

    def run(self, epochs: Optional[int] = None) -> History:
        """Train for ``epochs`` (default from config); returns history."""
        callbacks = self.build_callbacks()
        result = self.backend.execute(self, callbacks, epochs=epochs)
        self._check_divergence(result.divergence)
        self.history = result.history
        self._final_model = result.model
        self.group_stats = dict(result.stats)
        callbacks.on_run_end(self, result)
        return self.history

    @property
    def final_model(self) -> CosmoFlowModel:
        """The trained model (identical on every rank)."""
        if self._final_model is None:
            raise RuntimeError("run() has not completed")
        return self._final_model

    def throughput(self) -> Dict[str, float]:
        """Samples/sec and achieved flop/s (the paper's 535 Gflop/s
        single-node metric, E2): records counted by the metrics registry
        over the summed epoch times of ``history``; zero before a run."""
        total_time = sum(self.history.epoch_time)
        records = self.metrics.value("engine.records", 0)
        if total_time <= 0.0 or not records:
            return {"samples_per_sec": 0.0, "flops_per_sec": 0.0, "step_time": 0.0}
        sps = records / total_time
        return {
            "samples_per_sec": sps,
            "flops_per_sec": sps * self.final_model.flops_per_sample(),
            "step_time": 1.0 / sps,
        }

    def _check_divergence(self, divergence: Optional[float]) -> None:
        if divergence is None:
            return
        if divergence > self.config.divergence_threshold:
            raise RuntimeError(
                f"rank parameter divergence {divergence:.3e} — synchronous "
                "training invariant violated"
            )

    # -- the canonical loop (runs inside each executing rank) -------------

    def rank_loop(self, rc: RankContext, epochs: Optional[int] = None) -> History:
        """All epochs for one rank; backends call this per worker."""
        epochs = self.config.epochs if epochs is None else epochs
        rc.callbacks.on_run_start(rc)
        for epoch in range(rc.start_epoch, epochs):
            self.run_epoch(rc, epoch)
        rc.callbacks.on_rank_end(rc)
        return rc.history

    def run_epoch(self, rc: RankContext, epoch: int) -> None:
        """One epoch: training pass, validation pass, curve accounting."""
        t0 = time.perf_counter()
        rc.epoch = epoch
        rc.callbacks.on_epoch_start(rc)
        train_loss = self.train_epoch(rc)
        val_loss = (
            self.validate(rc) if (self.config.validate and rc.val_views) else float("nan")
        )
        elapsed = time.perf_counter() - t0
        rc.account_untracked(elapsed)
        rc.history.train_loss.append(train_loss)
        rc.history.val_loss.append(val_loss)
        rc.history.epoch_time.append(elapsed)
        rc.history.effective_batch.append(float(rc.effective_batch()))
        rc.callbacks.on_epoch_end(rc)

    def train_epoch(self, rc: RankContext) -> float:
        """One epoch of ``rc.steps_per_epoch`` steps; returns the mean step loss."""
        losses: List[float] = []
        # A readmitted rank resumes its first (partial) epoch at the
        # step it was admitted at; every other context starts at 0.
        first, rc.resume_step = rc.resume_step, 0
        for step in range(first, rc.steps_per_epoch):
            with rc.timed_stage("io", step):
                batch = rc.fetch(step)
            with rc.timed_stage("compute", step):
                loss, grads, n_samples = rc.compute(batch)
            if rc.aggregates:
                with rc.timed_stage("comm", step):
                    loss, grads = rc.aggregate(loss, grads)
            with rc.timed_stage("optimizer", step):
                rc.optimizer.step(grads)
            losses.append(loss)
            rc.count_records(n_samples)
            rc.step = step
            rc.last_loss = loss
            rc.callbacks.on_step_end(rc)
        return float(np.mean(losses))

    def validate(self, rc: RankContext) -> float:
        """Mean validation loss (globally averaged when aggregating):
        each view's mean, then the average of the means over ranks.

        Batch fetches are attributed to the ``io`` stage and loss
        evaluation to ``compute``, so validation I/O no longer lands in
        ``other`` and skews the Figure 3 profile.
        """
        if not rc.val_views:
            raise RuntimeError("no validation data configured")
        means = [self._view_loss(rc, view) for view in rc.val_views]
        if rc.aggregates:
            with rc.timed_stage("comm"):
                loss = rc.aggregate_scalar(means)
        else:
            (loss,) = means
        rc.last_val_loss = loss
        rc.callbacks.on_validation(rc)
        return loss

    def _view_loss(self, rc: RankContext, view) -> float:
        """Mean validation loss over one view."""
        losses = []
        it = view.batches(rc.val_batch_size, shuffle=False)
        while True:
            with rc.timed_stage("io"):
                batch = next(it, None)
            if batch is None:
                break
            x, y = batch
            with rc.timed_stage("compute"):
                losses.append(rc.model.validation_loss(x, y))
        return float(np.mean(losses))
