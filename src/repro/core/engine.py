"""One training loop, many execution backends.

The paper's per-rank workflow (Section V-A) — "gradient calculation,
gradient averaging via MPI communication, and model update from the
globally averaged gradients", plus a validation loop of "loss
calculation and global averaging" — is one program here, and
``TrainingEngine(backend, config).run()`` is the only way to start it:

* the engine owns the canonical epoch/step loop — batch fetch (``io``),
  loss+gradients (``compute``), gradient aggregation (``comm``),
  optimizer update (``optimizer``), validation, and the
  :class:`History` / :class:`~repro.utils.timer.StageTimer` accounting
  behind the Figure 3 stage profile;
* an :class:`ExecutionBackend` decides only *how ranks execute and
  aggregate*: in-process (:class:`LocalBackend`), sequentially
  simulated (:class:`SteppedBackend`), or one OS thread per rank
  (:class:`ThreadedBackend`) under an
  :class:`~repro.core.elastic.ElasticConfig` — fully synchronous by
  default, fault-tolerant with checkpoint/restart when the policy
  lowers the quorum;
* mode-specific bookkeeping — learning-rate recording, divergence
  checking, checkpointing, group-stats collection — lives in
  :class:`Callback` hooks, so the loop body contains no mode branches.

Every backend reduces through
:func:`repro.comm.communicator.reduce_arrays` in rank order, so runs
with the same seed are bitwise identical across backends — the property
the golden equivalence tests pin.  Rank groups aggregate through the
paper's plugin (:class:`~repro.comm.plugin.MLPlugin`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

import numpy as np

from repro.comm.communicator import Communicator, ReduceOp
from repro.comm.errors import QuorumLostError
from repro.comm.serial import SteppedGroup
from repro.core.elastic import MPI_LIKE, ElasticConfig
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer, OptimizerConfig
from repro.obs.callback import TraceCallback
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.utils.logging import get_logger
from repro.utils.packing import flatten_arrays, unflatten_like
from repro.utils.timer import StageTimer

if TYPE_CHECKING:  # what only the thread, elastic, fault and plugin paths load
    from repro.comm.plugin import PluginConfig
    from repro.faults.injector import FaultInjector

__all__ = [
    "History",
    "EngineConfig",
    "Callback",
    "CallbackList",
    "LRRecorder",
    "DivergenceCheck",
    "CheckpointCallback",
    "GroupStatsCollector",
    "RankContext",
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

        if rc.steps_per_epoch is not None:
            step = (rc.epoch + 1) * rc.steps_per_epoch
        else:
            step = rc.optimizer.step_count
        save_checkpoint(
            checkpoint_path(self.directory, step),
            rc.model,
            rc.optimizer,
            history=rc.history,
        )


class GroupStatsCollector(Callback):
    """Publishes the backend's communication/fault statistics on the
    engine as ``engine.group_stats`` (installed by default)."""

    def on_run_end(self, engine, result):
        engine.group_stats = dict(result.stats)


# ---------------------------------------------------------------------------
# Per-rank execution context
# ---------------------------------------------------------------------------


class RankContext:
    """Everything one executing worker sees: its model replica,
    optimizer, data views, aggregator, timers, and curves.

    The engine drives the loop through four verbs — ``start_stream``
    (new epoch), ``fetch`` (one batch, ``None`` when exhausted),
    ``compute`` (loss + gradients), ``aggregate`` (global averaging) —
    which backends specialize without the loop body branching on mode.
    """

    def __init__(
        self,
        engine: "TrainingEngine",
        *,
        model: CosmoFlowModel,
        optimizer: CosmoFlowOptimizer,
        train_view,
        val_view=None,
        rank: int = 0,
        n_ranks: int = 1,
        batch_size: int = 1,
        val_batch_size: int = 1,
        steps_per_epoch: Optional[int] = None,
        rng=None,
        aggregator=None,
        comm: Optional[Communicator] = None,
        callbacks: Optional[CallbackList] = None,
        history: Optional[History] = None,
        timer: Optional[StageTimer] = None,
        start_epoch: int = 0,
    ):
        self.engine = engine
        self.model = model
        self.optimizer = optimizer
        self.train_view = train_view
        self.val_view = val_view
        self.rank = rank
        self.n_ranks = n_ranks
        self.batch_size = batch_size
        self.val_batch_size = val_batch_size
        self.steps_per_epoch = steps_per_epoch
        self.rng = rng
        self.aggregator = aggregator
        self.comm = comm
        self.callbacks = callbacks if callbacks is not None else CallbackList()
        self.history = history if history is not None else History()
        self.timer = timer if timer is not None else StageTimer()
        self.start_epoch = start_epoch
        self.epoch = start_epoch
        self.step = -1
        self.last_loss = float("nan")
        self.last_val_loss = float("nan")
        self.divergence: Optional[float] = None
        self.samples_seen = 0
        #: Steps to skip at the start of the first epoch — a readmitted
        #: rank resumes mid-epoch at the step it was admitted at.
        self.resume_step = 0
        #: Whether this context was built from a mid-run state resync.
        self.rejoined = False
        self._tracked_total = 0.0
        self._it = None

    # -- capabilities -----------------------------------------------------

    @property
    def aggregates(self) -> bool:
        """Whether this rank participates in gradient/loss averaging."""
        return self.aggregator is not None

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

    # -- the four verbs ---------------------------------------------------

    def start_stream(self) -> None:
        """Open this epoch's training-batch stream."""
        self._it = self.train_view.batches(self.batch_size, rng=self.rng)

    def fetch(self, step: int):
        """Next batch of the epoch, or ``None`` when exhausted."""
        return next(self._it, None)

    def _loss_and_grads(self, x, y):
        """One worker gradient computation, honoring the optimizer's
        precision mode: fp32 calls straight through (bitwise identical
        to every prior release); fp16 rounds inputs/gradients through
        half precision with the dynamic loss scale applied (see
        :mod:`repro.core.precision`)."""
        scaler = getattr(self.optimizer, "scaler", None)
        if scaler is not None:
            from repro.core.precision import fp16_loss_and_gradients

            return fp16_loss_and_gradients(self.model, x, y, scaler.scale)
        return self.model.loss_and_gradients(x, y)

    def compute(self, batch):
        """Loss and gradients for one batch; returns ``(loss, grads, n)``."""
        x, y = batch
        loss, grads = self._loss_and_grads(x, y)
        return loss, grads, len(x)

    def aggregate(self, loss, grads):
        """Globally average the step's gradients and loss."""
        grads = self.aggregator.gradients(grads)
        loss = self.aggregator.average_scalar(loss)
        return loss, grads

    def aggregate_scalar(self, value: float) -> float:
        """Globally average a scalar metric (the validation loop's
        "loss calculation and global averaging")."""
        return self.aggregator.average_scalar(value)

    # -- accounting -------------------------------------------------------

    @contextmanager
    def timed_stage(self, name: str, step: Optional[int] = None):
        """Time one stage region into both the :class:`StageTimer` and
        the engine's tracer.

        One ``perf_counter`` window feeds both sinks, so the durations
        in an exported trace sum to exactly the stage totals ``History``
        accounting reports — ``trace summarize`` and Figure 3 agree by
        construction, not by coincidence.
        """
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.timer.add(name, dt)
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.complete(
                    name, t0, dt, cat="engine", track=self.rank, step=step, epoch=self.epoch
                )

    def account_untracked(self, elapsed: float) -> None:
        """Attribute loop/framework overhead not captured by a stage —
        Figure 3's "TensorFlow framework time" analogue."""
        tracked = sum(
            self.timer.stages[s].total
            for s in ("io", "compute", "comm", "optimizer")
            if s in self.timer.stages
        )
        epoch_tracked = tracked - self._tracked_total
        self._tracked_total = tracked
        other = max(0.0, elapsed - epoch_tracked)
        self.timer.add("other", other)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.complete(
                "other",
                time.perf_counter() - other,
                other,
                cat="engine",
                track=self.rank,
                epoch=self.epoch,
            )


class _SteppedContext(RankContext):
    """K simulated ranks executed sequentially on one model replica.

    Synchronous SGD keeps every replica bitwise identical between
    steps, so one model instance can compute all k per-rank gradients
    sequentially and apply the update averaged in rank order once —
    exact, not approximate: k ranks at mini-batch 1 are single-process
    SGD at batch k.
    """

    def __init__(self, engine, *, group: SteppedGroup, shards, rngs, compressors=None, **kwargs):
        super().__init__(engine, **kwargs)
        self.group = group
        self.shards = shards
        self.rngs = rngs
        #: One gradient compressor per virtual rank (or ``None``): the
        #: top-k error-feedback residual is per-rank state, so k
        #: sequentially simulated ranks need k residuals to stay
        #: bitwise identical to k threads each owning one.
        self.compressors = compressors
        self._iters = None

    @property
    def aggregates(self) -> bool:
        return True

    def start_stream(self):
        self._iters = [
            shard.batches(self.batch_size, rng=rng)
            for shard, rng in zip(self.shards, self.rngs)
        ]

    def fetch(self, step):
        return [next(it) for it in self._iters]

    def compute(self, batch):
        losses, grad_lists, n = [], [], 0
        for x, y in batch:
            loss, grads = self._loss_and_grads(x, y)
            losses.append(loss)
            grad_lists.append(grads)
            n += len(x)
        return losses, grad_lists, n

    def aggregate(self, losses, grad_lists):
        # One flat message per virtual rank, like the plugin's fused
        # buffer; the group reduces them in rank order.
        flats = [flatten_arrays(grads) for grads in grad_lists]
        if self.compressors is not None:
            flats = [c.compress(f) for c, f in zip(self.compressors, flats)]
        avg_flat = self.group.allreduce(flats, ReduceOp.MEAN)[0]
        return float(np.mean(losses)), unflatten_like(avg_flat, grad_lists[0])

    def aggregate_scalar(self, value):
        # Validation runs once on the shared replica — nothing to average.
        return value


class _ElasticContext(RankContext):
    """One rank of a thread (or process) group: cooperative fault hooks,
    a recycling batch stream, and grow-back admission servicing.  With
    an empty fault plan and no spares every hook is a fast path, which
    keeps fault-free runs bitwise identical to the stepped backend."""

    def __init__(self, engine, *, injector, **kwargs):
        super().__init__(engine, **kwargs)
        self.injector = injector
        #: Batch draws to discard on the next ``start_stream`` — a
        #: readmitted rank's first (partial) epoch starts mid-stream.
        self._skip_next_stream = 0

    def start_stream(self):
        super().start_stream()
        skip, self._skip_next_stream = self._skip_next_stream, 0
        for _ in range(skip):
            self._next_batch()

    def _next_batch(self):
        # A strict=False dataset skips records that went corrupt after
        # construction, so an epoch stream can come up short of
        # steps_per_epoch — recycle it instead of letting the bad
        # record kill the rank with StopIteration.
        try:
            return next(self._it)
        except StopIteration:
            self.start_stream()
            try:
                return next(self._it)
            except StopIteration:
                raise RuntimeError(
                    f"rank {self.rank}: data shard yielded no batches"
                ) from None

    def fetch(self, step):
        # Top of step is where a real failure detector would observe
        # missed heartbeats; step-keyed faults fire here — and where
        # scheduled recoveries are serviced, so a joiner is admitted at
        # a step (= generation) boundary.
        global_step = self.epoch * self.steps_per_epoch + step
        self._service_rejoins(global_step)
        self.injector.begin_step(self.rank, global_step)
        self.injector.maybe_crash(self.rank, global_step)
        stall = self.injector.hang_delay(self.rank, global_step)
        if stall > 0:
            time.sleep(stall)
        return self._next_batch()

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

    def burn_in(self) -> None:
        """Replay completed epochs' batch draws so the resumed RNG
        stream is exactly where an uninterrupted run would be."""
        for _ in range(self.start_epoch):
            self.start_stream()
            for _ in range(self.steps_per_epoch):
                self._next_batch()


# ---------------------------------------------------------------------------
# Execution backends
# ---------------------------------------------------------------------------


def _precision_stats(optimizer) -> Dict[str, Any]:
    """Loss-scaler counters for a backend's run stats (empty in fp32)."""
    scaler = getattr(optimizer, "scaler", None)
    return scaler.stats() if scaler is not None else {}


def _compression_stats(compressors) -> Dict[str, Any]:
    """Rank-0's compressor counters for a backend's run stats.

    Every rank compresses the same number of same-sized messages, so
    rank 0's per-rank counters are representative and — crucially —
    identical across the stepped/threaded/process backends (a sum over
    the stepped backend's virtual ranks would not be comparable to the
    single thread-local compressor a threaded rank exposes).  Empty for
    mode "none": the uncompressed stats dict stays byte-for-byte what
    it was before compression existed.
    """
    compressors = list(compressors or ())
    if not compressors or compressors[0] is None:
        return {}
    c0 = compressors[0]
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
    with a single-rank aggregation plugin ("enable the CPE ML plugin
    even at the single node").

    The context is created once and reused across ``execute`` calls, so
    history, stage timers, and the shuffle RNG stream accumulate over
    repeated runs.
    """

    def __init__(
        self,
        model: CosmoFlowModel,
        optimizer: CosmoFlowOptimizer,
        train_data,
        val_data=None,
        aggregator=None,
        rng=None,
        timer: Optional[StageTimer] = None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.train_data = train_data
        self.val_data = val_data
        self.aggregator = aggregator
        self.rng = rng
        self.timer = timer
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
            self._rc = RankContext(
                engine,
                model=self.model,
                optimizer=self.optimizer,
                train_view=self.train_data,
                val_view=self.val_data,
                batch_size=cfg.batch_size,
                val_batch_size=cfg.batch_size,
                rng=rng,
                aggregator=self.aggregator,
                callbacks=callbacks,
                timer=self.timer,
            )
        else:
            self._rc.callbacks = callbacks
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
        from repro.comm.plugin import PluginConfig

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
        self.steps_per_epoch = len(train_data) // n_ranks  # paper: N_iters = N_samples / n_ranks

    def _replica(self, engine: "TrainingEngine"):
        """A freshly seeded model and its optimizer."""
        model = CosmoFlowModel(self.model_config, seed=engine.config.seed)
        return model, CosmoFlowOptimizer(model.parameter_arrays(), self._opt_config(engine))

    def _opt_config(self, engine: "TrainingEngine") -> OptimizerConfig:
        if self.optimizer_config is not None:
            return self.optimizer_config
        return OptimizerConfig(
            decay_steps=max(1, engine.config.epochs * self.steps_per_epoch)
        )

    def _aggregator(self, comm: Communicator):
        from repro.comm.plugin import MLPlugin

        return MLPlugin(comm, self.plugin_config).init()

    def _val_view(self, rank: int):
        val = self.val_data
        if val is None:
            return None
        return val.shard(rank, self.n_ranks) if len(val) >= self.n_ranks else val


class SteppedBackend(_GroupBackend):
    """K simulated ranks executed sequentially in the calling thread —
    exact SSGD emulation that scales to thousands of virtual ranks
    (the Figure 5 convergence study's vehicle)."""

    #: The stale backend substitutes its context over a ``StaleGroup``.
    context_cls = _SteppedContext

    def _make_context(self, engine, group, callbacks) -> _SteppedContext:
        """All simulated ranks on one replica: per-rank shards, RNG
        streams and compressors, shared model and optimizer."""
        cfg = engine.config
        k = self.n_ranks
        model, optimizer = self._replica(engine)
        if self.plugin_config.compression != "none":
            compressors = [self.plugin_config.build_compressor() for _ in range(k)]
        else:
            compressors = None
        return self.context_cls(
            engine,
            group=group,
            shards=[self.train_data.shard(r, k) for r in range(k)],
            rngs=[np.random.default_rng([cfg.seed, r]) for r in range(k)],
            compressors=compressors,
            model=model,
            optimizer=optimizer,
            train_view=self.train_data,
            val_view=self.val_data,
            n_ranks=k,
            batch_size=cfg.batch_size,
            val_batch_size=1,
            steps_per_epoch=self.steps_per_epoch,
            callbacks=callbacks,
        )

    def _result(self, rc, hist: History, stats: Dict[str, Any]) -> EngineResult:
        stats.update(_precision_stats(rc.optimizer))
        stats.update(_compression_stats(rc.compressors))
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
        """One real rank over ``comm``: its shard, its ``[seed, rank]``
        shuffle stream, its own replica and aggregator."""
        cfg = engine.config
        return self.context_cls(
            engine,
            injector=self.injector,
            model=model,
            optimizer=optimizer,
            train_view=self.train_data.shard(comm.rank, self.n_ranks),
            val_view=self._val_view(comm.rank),
            rank=comm.rank,
            n_ranks=self.n_ranks,
            batch_size=cfg.batch_size,
            val_batch_size=1,
            steps_per_epoch=self.steps_per_epoch,
            rng=np.random.default_rng([cfg.seed, comm.rank]),
            aggregator=self._aggregator(comm),
            comm=comm,
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
                start_epoch = optimizer.step_count // self.steps_per_epoch
        # Pre-training phase: step-keyed faults must not fire on the
        # initial parameter broadcast.
        self.injector.begin_step(comm.rank, -1)
        rc = self._rank_context(
            engine, comm, callbacks, model, optimizer, history=history, start_epoch=start_epoch
        )
        # Algorithm 2 preamble: rank 0's parameters to all ranks (after a
        # restart this also re-synchronizes any replica drift).
        rc.aggregator.broadcast_parameters(model.parameter_arrays())
        rc.burn_in()
        return rc

    def _make_rejoin_context(self, engine, comm, callbacks, payload) -> RankContext:
        """Build a readmitted rank's context from its resync payload.

        Everything — parameters, Adam slots, counters, curves — comes
        from the donated state; the joiner never touches the group's
        collectives during construction (a broadcast here would desync
        the survivors' lockstep collective schedule).  The RNG stream
        burns in the completed epochs plus the partial rejoin epoch, so
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
        rc.burn_in()
        rc._skip_next_stream = resume_step
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
        stats.update(_compression_stats([getattr(rc0.aggregator, "compressor", None)]))
        # A record-backed dataset routed through the burst-buffer tier
        # reports its staging decisions alongside the comm-layer stats;
        # the manager is shared by every rank's shard, so this is the
        # run total.
        staging = getattr(self.train_data, "staging", None)
        if staging is not None:
            stats["staging"] = staging.stats.as_dict()
            stats["staging_breakers"] = staging.breaker_states()
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
                GroupStatsCollector(),
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
            self.validate(rc)
            if (self.config.validate and rc.val_view is not None)
            else float("nan")
        )
        elapsed = time.perf_counter() - t0
        rc.account_untracked(elapsed)
        rc.history.train_loss.append(train_loss)
        rc.history.val_loss.append(val_loss)
        rc.history.epoch_time.append(elapsed)
        rc.history.effective_batch.append(float(rc.effective_batch()))
        rc.callbacks.on_epoch_end(rc)

    def train_epoch(self, rc: RankContext) -> float:
        """One pass over the training data; returns the mean step loss."""
        losses: List[float] = []
        rc.start_stream()
        # A readmitted rank resumes its first (partial) epoch at the
        # step it was admitted at; every other context starts at 0.
        step, rc.resume_step = rc.resume_step, 0
        while rc.steps_per_epoch is None or step < rc.steps_per_epoch:
            with rc.timed_stage("io", step):
                batch = rc.fetch(step)
            if batch is None:
                break
            with rc.timed_stage("compute", step):
                loss, grads, n_samples = rc.compute(batch)
            if rc.aggregates:
                with rc.timed_stage("comm", step):
                    loss, grads = rc.aggregate(loss, grads)
            with rc.timed_stage("optimizer", step):
                rc.optimizer.step(grads)
            losses.append(loss)
            rc.samples_seen += n_samples
            rc.step = step
            rc.last_loss = loss
            rc.callbacks.on_step_end(rc)
            step += 1
        if not losses:
            raise RuntimeError("training epoch saw no batches")
        return float(np.mean(losses))

    def validate(self, rc: RankContext) -> float:
        """Mean validation loss (globally averaged when aggregating).

        Batch fetches are attributed to the ``io`` stage and loss
        evaluation to ``compute``, so validation I/O no longer lands in
        ``other`` and skews the Figure 3 profile.
        """
        if rc.val_view is None:
            raise RuntimeError("no validation data configured")
        losses = []
        it = rc.val_view.batches(rc.val_batch_size, shuffle=False)
        while True:
            with rc.timed_stage("io"):
                batch = next(it, None)
            if batch is None:
                break
            x, y = batch
            with rc.timed_stage("compute"):
                losses.append(rc.model.validation_loss(x, y))
        loss = float(np.mean(losses))
        if rc.aggregates:
            with rc.timed_stage("comm"):
                loss = rc.aggregate_scalar(loss)
        rc.last_val_loss = loss
        rc.callbacks.on_validation(rc)
        return loss
