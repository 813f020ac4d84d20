"""The four gated workloads.

Each workload has the same shape: ``build_data`` and ``build_program`` are the
set-up phases, ``run`` performs the warm-up plus a fixed number of operations
through the program's public entry point (timed by an :class:`OpClock`), and
``run_by_hand`` repeats them hand-driven through the same public calls with a
span around each layer boundary.  Inputs come from ``seed`` only.

Why these four (the longer version is in ``bench/README.md``):

* ``train_scaled32_local`` - convolution kernels at realistic shapes.
* ``train_tiny16_stepped4`` - the same kernels where per-call overhead
  dominates, plus the multi-rank engine path, ``comm`` and the optimizer.
* ``infer_scaled32_batch8`` - forward only, no tape, batch > 1.
* ``data_records32_staged`` - no convolution at all: records, dataset, staging.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

from bench.frozen import OPS_AT_REF
from bench.measure import WARMUP_OPS, OpClock
from bench.spans import NullRecorder
from repro.comm.communicator import ReduceOp
from repro.comm.serial import SteppedGroup
from repro.core.engine import (
    Callback,
    EngineConfig,
    LocalBackend,
    SteppedBackend,
    TrainingEngine,
)
from repro.core.model import CosmoFlowModel
from repro.core.optimizer import CosmoFlowOptimizer, OptimizerConfig
from repro.core.topology import scaled_32, tiny_16
from repro.core.trainer import InMemoryData
from repro.cosmo import SimulationConfig, build_arrays
from repro.io.dataset import RecordDataset, write_dataset
from repro.io.staging import StagingConfig, StagingManager
from repro.tensor import ops
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.packing import flatten_arrays, unflatten_like
from repro.utils.rng import derive_seed

__all__ = ["Outcome", "make_workload"]


@dataclass
class Outcome:
    """What one run of a workload did, besides its timings."""

    attempted: int = 0
    failed: int = 0
    #: One line per failed check (printed, and kept in the result).
    notes: List[str] = field(default_factory=list)
    #: Exact counts and other deterministic values (losses, bytes, ...).
    counts: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, note: str) -> None:
        """A failed correctness check counts as a failed operation."""
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


class _StopRun(Exception):
    """Raised from the step hook to end a set-up-only engine run."""


class _StepClock(Callback):
    """The public timing hook: one :class:`OpClock` lap per engine step."""

    def __init__(self, clock: OpClock, stop_after: Optional[int] = None):
        self.clock = clock
        self.stop_after = stop_after
        self.losses: List[float] = []

    def on_run_start(self, rc) -> None:
        self.clock.start()

    def on_step_end(self, rc) -> None:
        self.losses.append(float(rc.last_loss))
        self.clock.lap()
        if self.stop_after is not None and len(self.losses) >= self.stop_after:
            raise _StopRun


def _decile_means(losses: List[float]) -> tuple:
    k = max(1, len(losses) // 10)
    return float(np.mean(losses[:k])), float(np.mean(losses[-k:]))


def _endless(data: InMemoryData, batch_size: int, rng) -> Iterator:
    """Shuffled epochs back to back (what the engine's stream does)."""
    while True:
        yield from data.batches(batch_size, rng=rng, shuffle=True)


def _loss_and_grads(model: CosmoFlowModel, x, y, rec):
    """``CosmoFlowModel.loss_and_gradients`` through its public pieces,
    with a span at each layer boundary."""
    model.zero_grad()
    with rec.span("tensor.forward"):
        t = Tensor(np.asarray(x, dtype=np.float32))
        for layer in model.network:
            with rec.span("tensor.layer." + layer.name):
                t = layer(t)
    with rec.span("tensor.loss"):
        loss = ops.mse_loss(t, Tensor(np.asarray(y, dtype=np.float32)))
    with rec.span("tensor.backward"):
        loss.backward()
    return loss.item(), [p.grad for p in model.parameters()]


class _Workload:
    """What the worker calls, in this order: ``build_data``, ``build_program``,
    then ``run`` (public entry point) or ``run_by_hand`` (with spans)."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed

    def build_program(self) -> None:
        """Set-up that is not data (a model, a directory); default none."""

    def ops_for(self, n_ops: int) -> int:
        """The operation count actually run when ``n_ops`` is asked for."""
        return n_ops


class TrainWorkload(_Workload):
    """One training step per operation, driven by the real ``TrainingEngine``.

    The engine builds its model inside ``run`` (stepped ranks share one
    replica the backend creates), so there is no program to build ahead.
    """

    def __init__(self, name: str, seed: int, *, preset, n_ranks: int, n_sims: int, sim: SimulationConfig):
        super().__init__(name, seed)
        self.preset = preset
        self.n_ranks = n_ranks
        self.n_sims = n_sims
        self.sim = sim

    def build_data(self) -> None:
        x, y, _ = build_arrays(self.n_sims, self.sim, seed=self.seed)
        self.data = InMemoryData(x, y)
        self.steps_per_epoch = len(self.data) // self.n_ranks

    def ops_for(self, n_ops: int) -> int:
        """Round so warm-up + operations end exactly on an epoch boundary."""
        epochs = max(1, round((WARMUP_OPS + n_ops) / self.steps_per_epoch))
        return epochs * self.steps_per_epoch - WARMUP_OPS

    def _engine(self, total_steps: int, hook: Callback) -> TrainingEngine:
        epochs = math.ceil(total_steps / self.steps_per_epoch)
        config = EngineConfig(epochs=epochs, batch_size=1, seed=self.seed, validate=False)
        opt_config = OptimizerConfig(decay_steps=epochs * self.steps_per_epoch)
        if self.n_ranks == 1:
            model = CosmoFlowModel(self.preset(), seed=self.seed)
            optimizer = CosmoFlowOptimizer(model.parameter_arrays(), opt_config)
            backend = LocalBackend(model, optimizer, self.data)
        else:
            backend = SteppedBackend(
                self.preset(), self.data, optimizer_config=opt_config, n_ranks=self.n_ranks
            )
        return TrainingEngine(backend, config, callbacks=[hook])

    def run(self, clock: OpClock, n_ops: int) -> Outcome:
        """``n_ops == 0`` runs the warm-up only (a set-up measurement)."""
        out = Outcome()
        if n_ops == 0:
            hook = _StepClock(clock, stop_after=WARMUP_OPS)
            try:
                self._engine(WARMUP_OPS, hook).run()
            except _StopRun:
                pass
            return out
        n_ops = self.ops_for(n_ops)
        hook = _StepClock(clock)
        engine = self._engine(WARMUP_OPS + n_ops, hook)
        engine.run()
        losses = hook.losses[WARMUP_OPS:]
        out.attempted = len(losses)
        for i, loss in enumerate(losses):
            out.check(math.isfinite(loss), f"step {i}: loss {loss} is not finite")
        first, last = _decile_means(losses)
        out.check(last < 0.8 * first, f"loss did not fall: last decile {last:.4g} vs first {first:.4g}")
        out.counts["loss_first_decile"] = first
        out.counts["loss_last_decile"] = last
        if self.n_ranks > 1:
            steps = WARMUP_OPS + n_ops
            stats = engine.group_stats
            out.check(
                stats.get("reductions") == steps,
                f"reductions {stats.get('reductions')} != steps {steps}",
            )
            out.counts["reductions_per_step"] = stats["reductions"] / steps
            out.counts["bytes_per_step"] = stats["bytes_reduced"] / steps
        return out

    def run_by_hand(self, clock: OpClock, n_ops: int, rec) -> Outcome:
        """The engine's step, hand-driven through the same public calls."""
        out = Outcome()
        k = self.n_ranks
        model = CosmoFlowModel(self.preset(), seed=self.seed)
        steps = WARMUP_OPS + n_ops
        optimizer = CosmoFlowOptimizer(model.parameter_arrays(), OptimizerConfig(decay_steps=steps))
        group = SteppedGroup(k)
        shards = [self.data.shard(r, k) for r in range(k)] if k > 1 else [self.data]
        streams = [
            _endless(shard, 1, np.random.default_rng([self.seed, r]))
            for r, shard in enumerate(shards)
        ]
        for step in range(steps):
            rec.op = step - WARMUP_OPS
            clock.start()
            with rec.span("step"):
                losses, grad_lists = [], []
                for stream in streams:
                    with rec.span("io.fetch"):
                        x, y = next(stream)
                    loss, grads = _loss_and_grads(model, x, y, rec)
                    losses.append(loss)
                    grad_lists.append(grads)
                grads = grad_lists[0]
                if k > 1:
                    with rec.span("comm.reduce"):
                        flats = [flatten_arrays(g) for g in grad_lists]
                        avg = group.allreduce(flats, ReduceOp.MEAN)[0]
                        grads = unflatten_like(avg, grad_lists[0])
                with rec.span("core.optimizer.step"):
                    optimizer.step(grads)
            clock.lap()
            out.check(math.isfinite(float(np.mean(losses))), f"step {step}: loss is not finite")
        out.attempted = n_ops
        return out


class InferWorkload(_Workload):
    """``CosmoFlowModel.predict`` on a batch of 8, the call ``repro predict`` makes."""

    BATCH = 8

    def build_data(self) -> None:
        sim = SimulationConfig(particle_grid=96, histogram_grid=64)
        self.x, _, _ = build_arrays(1, sim, seed=self.seed)

    def build_program(self) -> None:
        self.model = CosmoFlowModel(scaled_32(), seed=self.seed)
        # Batch-1 predictions: what every batch-8 output is checked against.
        self.reference = np.concatenate(
            [self.model.predict(self.x[i : i + 1]) for i in range(len(self.x))]
        )

    def _by_hand(self, xb, rec):
        with rec.span("predict"):
            with no_grad():
                t = Tensor(np.asarray(xb, dtype=np.float32))
                for layer in self.model.network:
                    with rec.span("tensor.layer." + layer.name):
                        t = layer(t)
            with rec.span("core.denormalize"):
                return self.model.space.denormalize(t.data)

    def _loop(self, clock: OpClock, n_ops: int, rec) -> Outcome:
        out = Outcome()
        n = len(self.x)
        for i in range(WARMUP_OPS + n_ops):
            idx = (np.arange(self.BATCH) + i) % n
            xb = self.x[idx]
            clock.start()
            if rec is None:
                pred = self.model.predict(xb)
            else:
                rec.op = i - WARMUP_OPS
                pred = self._by_hand(xb, rec)
            clock.lap()
            if i >= WARMUP_OPS:
                err = float(np.max(np.abs(pred - self.reference[idx])))
                out.check(err <= 1e-5, f"op {i}: batch-8 differs from batch-1 by {err:.3g}")
        out.attempted = n_ops
        return out

    def run(self, clock: OpClock, n_ops: int) -> Outcome:
        return self._loop(clock, n_ops, None)

    def run_by_hand(self, clock: OpClock, n_ops: int, rec) -> Outcome:
        return self._loop(clock, n_ops, rec)


class _StagingProxy:
    """Forwards the public ``staging=`` interface, with a span on ``read``."""

    def __init__(self, manager: StagingManager, rec):
        self._manager = manager
        self._rec = rec

    def read(self, source):
        with self._rec.span("io.staging.read"):
            return self._manager.read(source)

    def __getattr__(self, name):
        return getattr(self._manager, name)


class DataWorkload(_Workload):
    """A fresh staging tier, the dataset's index pass and one shuffled epoch."""

    N_SIMS = 16
    SAMPLES_PER_FILE = 8
    BATCH = 4

    def __init__(self, name: str, seed: int, workdir: Path):
        super().__init__(name, seed)
        self.workdir = Path(workdir)

    def build_data(self) -> None:
        sim = SimulationConfig(particle_grid=64, histogram_grid=64)
        self.x, self.y, _ = build_arrays(self.N_SIMS, sim, seed=self.seed)
        self.paths = write_dataset(
            self.workdir / "records", self.x, self.y, samples_per_file=self.SAMPLES_PER_FILE
        )
        self.dataset_bytes = sum(p.stat().st_size for p in self.paths)

    def build_program(self) -> None:
        self.bb_dir = self.workdir / "bb"

    def _epoch(self, i: int, rec, out: Optional[Outcome]) -> None:
        """One operation; its checks go to ``out`` (``None`` during warm-up)."""
        # Half the dataset fits, so the LRU evicts 8 of the 16 staged files
        # and every epoch writes beside its reads.
        config = StagingConfig(capacity_bytes=self.dataset_bytes // 2)
        seed = derive_seed(self.seed, "epoch", i)
        picked = int(np.random.default_rng(seed).integers(len(self.x) // self.BATCH))
        kept = None
        n_samples = 0
        with rec.span("epoch"):
            with rec.span("io.staging.new"):
                manager = StagingManager(self.bb_dir, config, seed=seed)
            staging = _StagingProxy(manager, rec) if rec.spans is not None else manager
            with rec.span("io.dataset.index"):
                dataset = RecordDataset(self.paths, staging=staging)
            # Decode time is this span's self time: the batches minus the reads.
            with rec.span("io.records.decode"):
                batches = dataset.batches(self.BATCH, rng=np.random.default_rng(seed), shuffle=True)
                for b, (bx, by) in enumerate(batches):
                    n_samples += len(bx)
                    if b == picked:
                        kept = (bx, by)
        if out is not None:
            stats = manager.stats
            as_written = kept is not None and self._bitwise_as_written(*kept)
            out.check(
                n_samples == len(self.x)
                and as_written
                and stats.stage_ins == len(self.paths)
                and stats.fallback_reads == 0,
                f"epoch {i}: {n_samples} samples, stage_ins {stats.stage_ins}, "
                f"fallback_reads {stats.fallback_reads}, sampled batch as written: {as_written}",
            )
            out.counts["evictions_per_epoch"] = stats.capacity_evictions
            out.counts["bytes_staged_per_epoch"] = stats.bytes_staged

    def _bitwise_as_written(self, bx, by) -> bool:
        """Every sample of the batch is bit for bit one of the written ones."""
        for v, t in zip(bx, by):
            same_target = np.flatnonzero((self.y == t).all(axis=1))
            if not any(np.array_equal(v, self.x[i]) for i in same_target):
                return False
        return True

    def run(self, clock: OpClock, n_ops: int) -> Outcome:
        """The public calls are the same traced or not; only the spans differ."""
        return self.run_by_hand(clock, n_ops, NullRecorder())

    def run_by_hand(self, clock: OpClock, n_ops: int, rec) -> Outcome:
        out = Outcome()
        for i in range(WARMUP_OPS + n_ops):
            shutil.rmtree(self.bb_dir, ignore_errors=True)
            rec.op = i - WARMUP_OPS
            clock.start()
            self._epoch(i, rec, None if i < WARMUP_OPS else out)
            clock.lap()
        out.attempted = n_ops
        return out


def make_workload(name: str, seed: int, workdir: Path):
    if name == "train_scaled32_local":
        return TrainWorkload(
            name, seed, preset=scaled_32, n_ranks=1, n_sims=2,
            sim=SimulationConfig(particle_grid=96, histogram_grid=64),
        )
    if name == "train_tiny16_stepped4":
        return TrainWorkload(
            name, seed, preset=tiny_16, n_ranks=4, n_sims=16, sim=SimulationConfig()
        )
    if name == "infer_scaled32_batch8":
        return InferWorkload(name, seed)
    if name == "data_records32_staged":
        return DataWorkload(name, seed, workdir)
    raise KeyError(f"unknown workload {name!r}; choose from {list(OPS_AT_REF)}")
