"""Real-process execution backend: ranks as supervised OS processes.

:class:`ProcessBackend` runs the engine's rank loop in **spawned
worker processes** that exchange gradients through the shared-memory
collective arena of :mod:`repro.comm.process`, supervised by a
parent-side :class:`~repro.comm.process.RankSupervisor`.  Everything
the thread backend proves in-process — shrink-and-continue,
timeout eviction, quorum-loss checkpoint restart, step-boundary
grow-back with CRC-verified resync — holds here against *real* process
deaths: a ``proc_kill`` fault event is an actual ``SIGKILL``, detected
by exit code, with no cleanup handlers softening the blow.

Determinism carries over: a fault-free run is bitwise identical to the
``threaded`` (and hence ``local``/``stepped``) backends — same per-rank
RNG streams, same rank-order reduction through
:func:`~repro.comm.communicator.reduce_arrays`, with losses and
parameters crossing the process boundary as exact float64 bytes.  A
seeded fault plan is serialized to JSON and shipped to every worker,
so injected crash+recovery schedules replay bitwise too.

Worker-side observability is first-class: each worker runs its own
:class:`~repro.obs.tracer.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry` (the conv kernels' pass
counters attached to it), dumps them to a per-rank report file on
exit, and the parent merges them into the engine's sinks — N processes
produce the same metrics a single shared registry would have seen.

Caveats versus the thread backend (documented, by design):

* datasets and configs cross the ``spawn`` boundary by pickling, so
  they must be picklable (the in-memory and record-backed datasets
  are);
* ``message_corrupt`` fault events need the thread group's checksummed
  retransmission path, which the shared-memory protocol does not
  implement — they never fire under this backend;
* per-rank metrics/traces of workers that die (or lose quorum) are
  lost with the process; the merged artifacts cover workers that
  completed.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.comm.errors import QuorumLostError, RankEvictedError
from repro.comm.process import (
    EXIT_CRASH,
    EXIT_EVICTED,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_QUORUM_LOST,
    ProcessComm,
    RankSupervisor,
    ShmLayout,
    attach_segment,
    create_segment,
    destroy_segment,
    sweep_stale_segments,
)
from repro.core.checkpoint import pack_training_state, restore_training_state
from repro.core.elastic import MPI_LIKE, ElasticConfig
from repro.core.engine import (
    CallbackList,
    EngineResult,
    History,
    LRRecorder,
    ThreadedBackend,
    TrainingEngine,
    _ElasticContext,
    _GroupBackend,
    _compression_stats,
    _precision_stats,
    _restart_or_raise,
)
from repro.core.model import CosmoFlowModel
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.obs.callback import TraceCallback
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.primitives import conv3d
from repro.utils.cores import share_cores
from repro.utils.procs import raise_malloc_thresholds

__all__ = ["ProcessBackend"]

#: Fault kinds consumed by the rank that begins the event's step.
_RANK_KEYED = (
    FaultKind.RANK_CRASH,
    FaultKind.PROC_KILL,
    FaultKind.RANK_HANG,
    FaultKind.MESSAGE_CORRUPT,
)
_JOIN_KINDS = (FaultKind.RANK_RECOVER, FaultKind.SPARE_JOIN)


def _fired(event, begun: Dict[int, int]) -> bool:
    """Whether a run whose ranks began the steps ``begun`` (per-rank
    top-of-step watermarks) consumed plan ``event``: a rank-keyed event
    fires on its rank at the top of its step, before anything else, and
    a join event at the boundary the donor passes."""
    if event.kind in _RANK_KEYED and event.rank is not None:
        return begun.get(event.rank, -1) >= event.step
    reached = max(begun.values(), default=-1)
    return event.kind in _RANK_KEYED + _JOIN_KINDS and reached >= event.step


class _ProcessContext(_ElasticContext):
    """Elastic rank context with real-process injection points.

    Identical to the thread ranks' context except at the step boundary,
    where it (1) records the step watermark the restart replay filter
    reads, and (2) gives ``proc_kill`` events their honest realization
    — ``os.kill(getpid(), SIGKILL)`` — before the cooperative crash hook
    runs.  Both fire before any of the step's collectives, so survivor
    numerics are identical to the threaded backend's for the same plan.
    """

    def _begin_step(self, global_step):
        self.comm.note_step(global_step)
        super()._begin_step(global_step)
        self.injector.maybe_kill(self.rank, global_step)


class _WorkerBackend(ThreadedBackend):
    """In-worker :class:`ThreadedBackend` reusing its context/resync
    construction verbatim, with the process-aware context class."""

    context_cls = _ProcessContext


def _sigterm_to_exit(signum, frame):  # pragma: no cover - signal path
    raise SystemExit(EXIT_INTERRUPTED)


def _worker_main(spec: Dict[str, Any], rank: int, incarnation: int) -> None:
    """Entry point of one rank's worker process (``spawn`` target).

    ``incarnation`` 0 is an original group member; higher incarnations
    are joiner processes spawned by the supervisor after a donor
    admitted this rank back.  Exit codes are the supervisor's crash
    classification protocol (see :mod:`repro.comm.process`).
    """
    signal.signal(signal.SIGTERM, _sigterm_to_exit)
    raise_malloc_thresholds()
    # The other ranks convolve on the same cores at the same time.
    share_cores(spec["world"])
    run_dir = Path(spec["run_dir"])
    ctrl_seg = attach_segment(spec["ctrl_name"])
    data_seg = attach_segment(spec["data_name"])
    layout = ShmLayout(spec["world"], spec["payload_bytes"])
    ctrl = layout.ctrl_view(ctrl_seg.buf)
    tracer = Tracer() if spec["trace"] else NULL_TRACER
    comm = ProcessComm(
        rank,
        layout,
        ctrl,
        data_seg.buf,
        timeout_s=spec["timeout_s"],
        run_dir=run_dir,
        incarnation=incarnation,
        tracer=tracer,
    )
    injector = FaultInjector(FaultPlan.from_json(spec["plan_json"]))
    backend = _WorkerBackend(
        spec["model_config"],
        spec["train_data"],
        val_data=spec["val_data"],
        optimizer_config=spec["optimizer_config"],
        n_ranks=spec["world"],
        plugin_config=spec["plugin_config"],
        elastic=spec["elastic"],
        injector=injector,
    )
    engine = TrainingEngine(
        backend,
        config=spec["engine_config"],
        tracer=tracer,
        metrics=MetricsRegistry(),
    )
    # The conv kernels count this rank's passes into the registry the
    # worker ships home, as thread ranks count into the parent's.
    conv3d.set_metrics(engine.metrics)
    # Mirror the parent engine's per-rank hook order; driver-level hooks
    # (user callbacks, the group stats) stay in the parent.
    callbacks = CallbackList(
        [
            LRRecorder(),
            TraceCallback(engine.tracer, engine.metrics),
            *backend.callbacks(),
        ]
    )
    rc = None
    try:
        if incarnation == 0:
            rc = backend._make_context(engine, comm, callbacks)
        else:
            payload = comm.await_admission()
            rc = backend._make_rejoin_context(engine, comm, callbacks, payload)
            callbacks.on_rejoin(rc)
        engine.rank_loop(rc, epochs=spec["epochs"])
    except QuorumLostError:
        sys.exit(EXIT_QUORUM_LOST)
    except RankEvictedError:
        sys.exit(EXIT_EVICTED)
    except SystemExit:
        raise
    except BaseException as exc:
        traceback.print_exc()
        try:
            (run_dir / f"error-r{rank}-i{incarnation}.json").write_text(
                json.dumps({"type": type(exc).__name__, "message": str(exc)})
            )
        except OSError:  # pragma: no cover - diagnostics only
            pass
        comm.mark_dead()
        sys.exit(EXIT_CRASH)
    # Success: publish DONE before exiting so a zero exit code is
    # unambiguous to the supervisor's classifier, then persist this
    # rank's results and observability artifacts for the parent.
    comm.mark_done()
    np.savez(
        run_dir / f"result-r{rank}-i{incarnation}.npz",
        **pack_training_state(rc.model, history=rc.history),
    )
    report = {
        "rank": rank,
        "incarnation": incarnation,
        "rejoined": rc.rejoined,
        "divergence": rc.divergence,
        "stats": {**_precision_stats(rc.optimizer), **_compression_stats(rc.compressor)},
        "metrics": engine.metrics.dump(),
        "trace": engine.tracer.dump() if spec["trace"] else [],
    }
    (run_dir / f"worker-r{rank}-i{incarnation}.json").write_text(json.dumps(report))
    sys.exit(EXIT_OK)


class ProcessBackend(_GroupBackend):
    """Ranks as real, supervised OS processes over shared memory.

    Without an elastic policy this is a plain multi-process SSGD group
    (quorum = world size: any death fails the run, like MPI).  With
    ``elastic`` (an :class:`~repro.core.elastic.ElasticConfig`) and a
    ``plan`` (:class:`~repro.faults.plan.FaultPlan`), the full elastic
    protocol applies — shrink-and-continue on SIGKILL, warm-spare
    grow-back, checkpoint restart on quorum loss — with the plan
    shipped to workers as JSON so seeded schedules replay bitwise.

    The parent engine's user callbacks fire only for driver hooks
    (``on_restart``/``on_run_end``); per-rank hooks run inside the
    workers with worker-local callback instances.
    """

    def __init__(
        self,
        *args,
        elastic: Optional[ElasticConfig] = None,
        plan: Optional[FaultPlan] = None,
        run_dir=None,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.elastic = elastic or MPI_LIKE
        self.plan = plan or FaultPlan()
        self.run_dir = run_dir
        self.restarts = 0

    def callbacks(self):
        # Rank-side hooks (divergence check, checkpointing) are
        # installed inside each worker, not in the parent.
        return []

    # -- restart replay filter ---------------------------------------------

    def _surviving_events(self, consumed: Dict[int, int]) -> FaultPlan:
        """Drop plan events already consumed by a previous attempt.

        The thread backend keeps one injector across restarts,
        so fired events never re-fire; worker processes get a *fresh*
        injector each attempt, so the parent filters instead, using the
        per-rank top-of-step watermarks from the control segment
        (:func:`_fired`).
        """
        kept = tuple(e for e in self.plan.events if not _fired(e, consumed))
        return FaultPlan(seed=self.plan.seed, events=kept)

    # -- the driver ---------------------------------------------------------

    def execute(self, engine, callbacks, epochs=None):
        cfg = engine.config
        epochs = cfg.epochs if epochs is None else epochs
        el = self.elastic
        world = self.n_ranks
        quorum = el.resolve_quorum(world)
        if el.checkpoint_dir is not None:
            Path(el.checkpoint_dir).mkdir(parents=True, exist_ok=True)

        # Slot capacity: the largest payload a collective moves, one
        # float32 per parameter (the gradient message, the parameter
        # broadcast, the divergence check's allreduces); a larger one
        # fails loudly in ShmLayout.write_slot.
        probe = CosmoFlowModel(self.model_config, seed=cfg.seed)
        payload_bytes = 4 * probe.num_parameters

        own_run_dir = self.run_dir is None
        run_root = (
            Path(tempfile.mkdtemp(prefix="repro-proc-"))
            if own_run_dir
            else Path(self.run_dir)
        )
        run_root.mkdir(parents=True, exist_ok=True)

        mp = multiprocessing.get_context("spawn")
        self.restarts = 0
        consumed: Dict[int, int] = {r: -1 for r in range(world)}
        signal_kills: Dict[str, int] = {}
        all_exit_codes: Dict[str, int] = {}

        opt_config = self._opt_config(engine)
        base_spec = {
            "world": world,
            "payload_bytes": payload_bytes,
            "timeout_s": el.timeout_s,
            "engine_config": cfg,
            "epochs": epochs,
            "model_config": self.model_config,
            "train_data": self.train_data,
            "val_data": self.val_data,
            "optimizer_config": opt_config,
            "plugin_config": self.plugin_config,
            "elastic": el,
            "trace": engine.tracer.enabled,
        }

        try:
            while True:
                # Reap /dev/shm debris a previous (possibly SIGKILLed)
                # supervisor left behind before allocating our own.
                sweep_stale_segments()
                layout = ShmLayout(world, payload_bytes)
                ctrl_seg = create_segment(layout.ctrl_bytes)
                data_seg = create_segment(layout.data_bytes)
                ctrl = layout.ctrl_view(ctrl_seg.buf)
                layout.init_ctrl(ctrl, quorum, el.spares, el.auto_respawn)
                attempt_dir = run_root / f"attempt-{self.restarts}"
                attempt_dir.mkdir(parents=True, exist_ok=True)
                spec = dict(
                    base_spec,
                    ctrl_name=ctrl_seg.name,
                    data_name=data_seg.name,
                    run_dir=str(attempt_dir),
                    plan_json=self._surviving_events(consumed).to_json(),
                )

                def spawn(rank, incarnation, _spec=spec):
                    p = mp.Process(
                        target=_worker_main, args=(_spec, rank, incarnation)
                    )
                    p.start()
                    return p

                supervisor = RankSupervisor(layout, ctrl, spawn, timeout_s=el.timeout_s)
                try:
                    supervisor.launch(range(world))
                    while not supervisor.finished():
                        supervisor.poll()
                        time.sleep(0.005)
                    supervisor.poll()  # classify the final exits
                    quorum_lost = supervisor.quorum_lost
                    begun = supervisor.begun_steps()
                    shm_stats = supervisor.stats()
                    failures = dict(supervisor.failures)
                    final_inc = {
                        r: w.incarnation for r, w in supervisor.workers.items()
                    }
                finally:
                    supervisor.shutdown()
                    destroy_segment(ctrl_seg)
                    destroy_segment(data_seg)

                for r, s in begun.items():
                    consumed[r] = max(consumed[r], s)
                for name, n in shm_stats["signal_kills"].items():
                    signal_kills[name] = signal_kills.get(name, 0) + n
                all_exit_codes.update(shm_stats["exit_codes"])

                if not quorum_lost:
                    break
                exc = QuorumLostError(
                    f"group below quorum {quorum}",
                    survivors=shm_stats["survivors"],
                )
                if failures:
                    exc.__cause__ = failures[min(failures)]
                _restart_or_raise(self, engine, callbacks, exc)

            result = self._collect(
                engine, attempt_dir, final_inc, shm_stats, signal_kills,
                all_exit_codes, consumed,
            )
        finally:
            if own_run_dir:
                shutil.rmtree(run_root, ignore_errors=True)
        return result

    # -- result assembly ----------------------------------------------------

    def _collect(
        self,
        engine,
        attempt_dir: Path,
        final_inc: Dict[int, int],
        shm_stats: Dict[str, Any],
        signal_kills: Dict[str, int],
        exit_codes: Dict[str, int],
        consumed: Dict[int, int],
    ) -> EngineResult:
        reports: Dict[int, Dict[str, Any]] = {}
        for r, inc in sorted(final_inc.items()):
            path = attempt_dir / f"worker-r{r}-i{inc}.json"
            if path.exists():
                reports[r] = json.loads(path.read_text())
        if not reports:
            raise RuntimeError(
                "no worker produced a result (all ranks failed without "
                "tripping quorum detection)"
            )
        # Mirror the thread backend's keeper rule: prefer a
        # continuously-active rank's curves over a resync-reconstructed
        # History.
        keeper = min(
            (r for r, rep in reports.items() if not rep["rejoined"]),
            default=min(reports),
        )
        model = CosmoFlowModel(self.model_config, seed=engine.config.seed)
        history = History()
        result = attempt_dir / f"result-r{keeper}-i{final_inc[keeper]}.npz"
        with open(result, "rb") as fh, np.load(fh) as data:
            restore_training_state(data, model, history=history)
        divergence = reports[keeper]["divergence"]

        # Fold every completing worker's observability into the parent's
        # sinks — rank order, so merged artifacts are deterministic.
        for r in sorted(reports):
            rep = reports[r]
            engine.metrics.merge(rep["metrics"])
            if engine.tracer.enabled and rep["trace"]:
                engine.tracer.absorb(rep["trace"])
        # What fired, counted from the plan and the watermarks of every
        # attempt, the same rule the restart filter uses: a worker that
        # died writes no report.  (MESSAGE_CORRUPT never fires here.)
        fired = [
            e.kind for e in self.plan.events
            if e.kind is not FaultKind.MESSAGE_CORRUPT and _fired(e, consumed)
        ]
        faults = {k.value: fired.count(k) for k in FaultKind if k in fired}

        stats = {
            "backend": "process",
            "reductions": shm_stats["reductions"],
            "bytes_reduced": shm_stats["bytes_reduced"],
            "max_param_divergence": divergence,
            "survivors": shm_stats["survivors"],
            "failed_ranks": shm_stats["failed_ranks"],
            "evicted_ranks": shm_stats["evicted_ranks"],
            "retransmits": 0,
            "restarts": self.restarts,
            "rejoins": shm_stats["rejoins"],
            "resyncs": shm_stats["resyncs"],
            "resync_bytes": shm_stats["resync_bytes"],
            "spares_used": shm_stats["spares_used"],
            "faults_injected": faults,
            "exit_codes": exit_codes,
            "signal_kills": signal_kills,
        }
        # The loss-scale and compression counters of the rank whose
        # curves are reported, as the thread backend reports its rank 0's.
        stats.update(reports[keeper]["stats"])
        return EngineResult(
            history=history, model=model, stats=stats, divergence=divergence
        )
