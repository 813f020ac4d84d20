"""The failure contract of docs/resilience.md, one test per row, for
rank threads and rank processes alike.

Engine rows drive ``TrainingEngine.run()`` over ``ThreadedBackend`` /
``ProcessBackend`` with a one-event fault plan.  Group rows — the three
events no fault plan can produce — run one rank body on either rank
group: ``ThreadedGroup.run`` for threads, a ``RankSupervisor`` over
spawned workers that follow ``_worker_main``'s exit-code protocol for
processes.  Grow-back rows run one seeded crash-and-rejoin plan through
the engine and hold both domains to one table of what it reports.
"""

from __future__ import annotations

import math
import multiprocessing
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.comm.elastic import ThreadedGroup
from repro.comm.errors import (
    ProcessCrashError,
    QuorumLostError,
    RankEvictedError,
    RankFailedError,
)
from repro.comm.process import (
    EXIT_CRASH,
    EXIT_EVICTED,
    EXIT_OK,
    EXIT_QUORUM_LOST,
    ProcessComm,
    RankSupervisor,
    ShmLayout,
    attach_segment,
    destroy_segment,
)
from repro.core.elastic import ElasticConfig
from repro.core.engine import EngineConfig, ThreadedBackend, TrainingEngine
from repro.core.optimizer import OptimizerConfig
from repro.core.process_backend import ProcessBackend
from repro.core.topology import tiny_16
from repro.core.trainer import InMemoryData
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.faults.injector import FaultInjector, InjectedCrash
from tests.comm.test_process_group import PAYLOAD, _make_group
from tests.conftest import join_rank_threads
from tests.faults.test_delay_faults import ReleasableHang

DOMAINS = ("threads", "processes")
#: How long a hung rank stays hung: past every bound below.  No row waits
#: it out — a stalled thread is released when its row ends, a stalled
#: process is killed by its supervisor.
STALL_S = 60.0
TIMEOUT_S = 0.25
STRAGGLER_TIMEOUT_S = 0.5
#: Bounds that start running before a worker process has: longer than
#: workers take to start, one after the other, on a loaded host.
PROCESS_START_S = 1.5
HEARTBEAT_TIMEOUT_S = 3.0


@pytest.fixture(autouse=True)
def own_registry_and_no_rank_process_left_running(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path / "registry"))
    yield
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Engine rows
# ---------------------------------------------------------------------------


def make_dataset(n=8):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, 1, 16, 16, 16)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(n, 3)).astype(np.float32)
    return InMemoryData(x, y)


#: What a hung rank thread stalls on: set when its row ends.
RELEASE = threading.Event()


@pytest.fixture(autouse=True)
def hung_rank_threads_released():
    RELEASE.clear()
    yield
    RELEASE.set()
    assert join_rank_threads() == []


def engine_for(domain, event, **policy):
    """Two ranks that both must live, one fault event, two epochs."""
    plan = FaultPlan(events=[event])
    if domain == "threads":
        cls, faults = ThreadedBackend, {"injector": ReleasableHang(plan, RELEASE)}
    else:
        cls, faults = ProcessBackend, {"plan": plan}
    backend = cls(
        tiny_16(),
        make_dataset(),
        optimizer_config=OptimizerConfig(eta0=5e-3, decay_steps=50),
        n_ranks=2,
        elastic=ElasticConfig(quorum_fraction=1.0, auto_respawn=False, **policy),
        **faults,
    )
    return TrainingEngine(backend, EngineConfig(epochs=2, validate=False))


#: What a dead rank's exception reaches the caller as: the exception
#: itself from a thread, the supervisor's record of the exit from a process.
CAUSE_OF_A_RAISE = {"threads": InjectedCrash, "processes": ProcessCrashError}


@pytest.mark.parametrize("domain", DOMAINS)
def test_rank_raises_and_quorum_is_lost_without_a_checkpoint(domain):
    crash = FaultEvent(FaultKind.RANK_CRASH, rank=1, step=1)
    engine = engine_for(domain, crash, timeout_s=10.0, max_restarts=0)
    with pytest.raises(QuorumLostError) as ei:
        engine.run()
    assert type(ei.value.__cause__) is CAUSE_OF_A_RAISE[domain]
    assert ei.value.survivors == (0,)
    assert engine.group_stats == {}  # a run that raised reports nothing


@pytest.mark.parametrize("domain", DOMAINS)
def test_rank_raises_and_quorum_is_lost_with_a_checkpoint(domain, tmp_path):
    crash = FaultEvent(FaultKind.RANK_CRASH, rank=1, step=5)  # epoch 2
    engine = engine_for(
        domain, crash, timeout_s=10.0, max_restarts=1, checkpoint_dir=str(tmp_path / "ckpt")
    )
    history = engine.run()
    assert len(history.train_loss) == 2
    stats = engine.group_stats
    assert stats["restarts"] == 1
    # The relaunched group is whole: the stats are the last launch's.
    assert (stats["survivors"], stats["failed_ranks"], stats["evicted_ranks"]) == ([0, 1], [], [])


@pytest.mark.parametrize("domain", DOMAINS)
def test_rank_hangs_while_its_peer_waits_in_a_collective(domain):
    hang = FaultEvent(FaultKind.RANK_HANG, rank=1, step=1, delay_s=STALL_S)
    timeout_s = TIMEOUT_S if domain == "threads" else PROCESS_START_S
    engine = engine_for(domain, hang, timeout_s=timeout_s, max_restarts=0)
    t0 = time.monotonic()
    with pytest.raises(QuorumLostError) as ei:
        engine.run()
    assert time.monotonic() - t0 < STALL_S  # evicted, not waited for
    assert ei.value.__cause__ is None  # an eviction is not an exception
    assert ei.value.survivors == (0,)


# ---------------------------------------------------------------------------
# Grow-back rows: one seeded plan, one report, both domains
# ---------------------------------------------------------------------------


def rank_1(kind, step):
    return FaultEvent(kind, rank=1, step=step)


#: Plan, warm spares, and what a two-rank, three-epoch run (four steps an
#: epoch) reports on threads and on processes alike.
GROWBACK = {
    "recovered twice": (
        [rank_1(FaultKind.RANK_CRASH, 1), rank_1(FaultKind.RANK_RECOVER, 3),
         rank_1(FaultKind.RANK_CRASH, 6), rank_1(FaultKind.RANK_RECOVER, 8)],
        0,
        {"rejoins": [1, 1], "spares_used": 0, "survivors": [0, 1], "failed_ranks": [1],
         "effective_batch": [2.0, 1.0, 2.0],
         "faults_injected": {"rank_crash": 2, "rank_recover": 2}},
    ),
    "respawned twice": (
        [rank_1(FaultKind.RANK_CRASH, 1), rank_1(FaultKind.RANK_CRASH, 5)],
        2,
        {"rejoins": [1, 1], "spares_used": 2, "survivors": [0, 1], "failed_ranks": [1],
         "effective_batch": [2.0, 2.0, 2.0],
         "faults_injected": {"rank_crash": 2}},
    ),
}
#: A joiner process must reach its first collective within this.
JOINER_START_S = 30.0


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("case", GROWBACK)
def test_a_rank_grows_back_twice(case, domain):
    """Each admission is decided by the donor at the step boundary after
    the death, so the report is the plan's, not the scheduler's."""
    events, spares, expected = GROWBACK[case]
    plan = FaultPlan(events=events)
    if domain == "threads":
        cls, faults = ThreadedBackend, {"injector": FaultInjector(plan)}
    else:
        cls, faults = ProcessBackend, {"plan": plan}
    backend = cls(
        tiny_16(),
        make_dataset(8),
        optimizer_config=OptimizerConfig(eta0=5e-3, decay_steps=50),
        n_ranks=2,
        elastic=ElasticConfig(quorum_fraction=0.5, spares=spares, timeout_s=JOINER_START_S, max_restarts=0),
        **faults,
    )
    engine = TrainingEngine(backend, EngineConfig(epochs=3, validate=False))
    history = engine.run()
    got = {key: engine.group_stats.get(key) for key in expected}
    got["effective_batch"] = history.effective_batch
    assert got == expected


# ---------------------------------------------------------------------------
# Group rows: one rank body, both rank groups
# ---------------------------------------------------------------------------


def meet(comm):
    """Every rank arrives before any goes on: a one-element allreduce."""
    comm.allreduce(np.zeros(1))


def hang_outside(comm, note, stall):
    meet(comm)
    if comm.rank == 1:
        stall(STALL_S)  # no collective in sight, no heartbeat
    return "returned"


def bcast_root_dies(comm, note, stall):
    if comm.rank == 0:
        raise RuntimeError("root died")
    try:
        comm.bcast(None, root=0)
    except RankFailedError as exc:
        return f"root dead {exc.failed_ranks}"
    return "bcast returned"


def root_dies_slowly(comm, note, stall):
    """The root reports its own death, then takes past ``timeout_s`` to exit
    (processes only: a rank thread has no death to report but its raise)."""
    if comm.rank == 0:
        comm.mark_dead()
        stall(4 * TIMEOUT_S)
        raise RuntimeError("root died")
    return bcast_root_dies(comm, note, stall)


def straggler_arrives_after_eviction(comm, note, stall):
    sums = [float(comm.allreduce(np.array([1.0]))[0])]
    if comm.rank == 1:
        # Past the eviction, and before the supervisor gives up on an
        # evicted process that is still running (another timeout_s).
        stall(1.4 * STRAGGLER_TIMEOUT_S)
    try:
        sums.append(float(comm.allreduce(np.array([1.0]))[0]))
    except RankEvictedError:
        note(comm.rank, "evicted")
        raise
    return str(sums)


BODIES = {
    f.__name__: f
    for f in (hang_outside, bcast_root_dies, root_dies_slowly, straggler_arrives_after_eviction)
}


def launch_threads(body, world, quorum, tmp_path, timeout_s=TIMEOUT_S):
    notes = {}
    group = ThreadedGroup(world, timeout_s=timeout_s, quorum=quorum)
    lost, cause, returned = False, None, [None] * world
    try:
        returned = group.run(lambda comm: BODIES[body](comm, notes.__setitem__, RELEASE.wait))
    except QuorumLostError as exc:
        lost, cause = True, exc.__cause__
    return lost, cause, group.stats(), returned, notes


def _process_rank(rank, world, ctrl_name, data_name, run_dir, body, timeout_s):
    """One worker: the exit codes ``_worker_main`` reports a rank's end by."""
    ctrl_seg, data_seg = attach_segment(ctrl_name), attach_segment(data_name)
    layout = ShmLayout(world, payload_bytes=PAYLOAD)
    comm = ProcessComm(
        rank, layout, layout.ctrl_view(ctrl_seg.buf), data_seg.buf,
        timeout_s=30.0, run_dir=run_dir,
    )

    def note(r, text):
        Path(run_dir, f"note-{r}").write_text(text)

    try:
        # Workers start one after the other: meet first, then arm the
        # bound under test.
        meet(comm)
        comm.timeout_s = timeout_s
        returned = BODIES[body](comm, note, time.sleep)
    except QuorumLostError:
        sys.exit(EXIT_QUORUM_LOST)
    except RankEvictedError:
        sys.exit(EXIT_EVICTED)
    except Exception:
        comm.mark_dead()
        sys.exit(EXIT_CRASH)
    comm.mark_done()
    Path(run_dir, f"returned-{rank}").write_text(returned)
    sys.exit(EXIT_OK)


def launch_processes(
    body, world, quorum, tmp_path, timeout_s=TIMEOUT_S, heartbeat_timeout_s=math.inf
):
    layout, ctrl_seg, data_seg, ctrl = _make_group(world, quorum=quorum)
    mp = multiprocessing.get_context("spawn")

    def spawn(rank, incarnation):
        p = mp.Process(
            target=_process_rank,
            args=(rank, world, ctrl_seg.name, data_seg.name, str(tmp_path), body, timeout_s),
        )
        p.start()
        return p

    # The supervisor times a silent heartbeat from its own first poll, so
    # a worker slow to start on a loaded host reads as hung: no stall
    # timer except where it is the detector under test.
    sup = RankSupervisor(
        layout, ctrl, spawn, timeout_s=timeout_s, heartbeat_timeout_s=heartbeat_timeout_s
    )
    try:
        sup.launch(range(world))
        while not sup.finished():
            sup.poll()
            time.sleep(0.005)
        sup.poll()
        # What ProcessBackend raises QuorumLostError from.
        cause = sup.failures[min(sup.failures)] if sup.failures else None
        lost, stats = sup.quorum_lost, sup.stats()
    finally:
        sup.shutdown(deadline_s=5.0)
        destroy_segment(ctrl_seg)
        destroy_segment(data_seg)

    def read(kind):
        return {int(p.name.split("-")[1]): p.read_text() for p in tmp_path.glob(f"{kind}-*")}

    returned = [read("returned").get(r) for r in range(world)]
    return lost, cause, stats, returned, read("note")


LAUNCH = {"threads": launch_threads, "processes": launch_processes}


def test_thread_hangs_where_no_collective_sees_it(tmp_path):
    """The launching thread evicts, ``timeout_s`` after the first rank
    returned; the stalled thread is left to end when it will."""
    t0 = time.monotonic()
    lost, cause, stats, _, _ = launch_threads("hang_outside", 2, 2, tmp_path)
    assert time.monotonic() - t0 < STALL_S  # evicted, not waited for
    assert lost and cause is None
    assert (stats["survivors"], stats["evicted_ranks"], stats["failed_ranks"]) == ([0], [1], [])


def test_join_cap_fails_a_thread_stalled_after_its_peer_is_lost():
    """A rank lost and its survivor stalled outside any collective before
    either returned (docs/resilience.md): no grace starts, so
    ``join_timeout_s`` is the one bound, and its expiry fails the stalled
    rank.  The thread is released as the row ends."""
    group = ThreadedGroup(2, timeout_s=STALL_S, quorum=1, join_timeout_s=2 * TIMEOUT_S)

    def body(comm):
        if comm.rank == 0:
            raise ValueError("lost")
        RELEASE.wait(STALL_S)
        return "returned"

    with pytest.raises(RankFailedError) as ei:
        group.run(body)
    assert type(ei.value) is RankFailedError
    assert ei.value.failed_ranks == (1,)


def test_process_hangs_where_no_collective_sees_it(tmp_path):
    """The supervisor evicts on a silent heartbeat and kills the process."""
    lost, cause, stats, _, _ = launch_processes(
        "hang_outside", 2, 2, tmp_path, heartbeat_timeout_s=HEARTBEAT_TIMEOUT_S
    )
    assert lost
    assert isinstance(cause, ProcessCrashError) and cause.signal_name == "heartbeat-stall"
    assert (stats["survivors"], stats["evicted_ranks"], stats["failed_ranks"]) == ([0], [1], [1])
    assert stats["exit_codes"]["1.0"] == -signal.SIGTERM  # killed, not waited for


@pytest.mark.parametrize("domain", DOMAINS)
def test_bcast_root_dies(domain, tmp_path):
    lost, _, stats, returned, _ = LAUNCH[domain]("bcast_root_dies", 3, 1, tmp_path)
    assert not lost
    assert returned == [None, "root dead (0,)", "root dead (0,)"]
    assert (stats["survivors"], stats["failed_ranks"]) == ([1, 2], [0])


def test_process_that_reported_its_death_is_not_taken_for_evicted(tmp_path):
    """Still running ``timeout_s`` after ``mark_dead()`` is a worker on its
    way out, not a straggler its peers evicted: it is left to exit, and the
    exit is on record as the failure."""
    lost, cause, stats, returned, _ = launch_processes("root_dies_slowly", 3, 1, tmp_path)
    assert not lost
    assert returned == [None, "root dead (0,)", "root dead (0,)"]
    assert isinstance(cause, ProcessCrashError) and cause.exitcode == EXIT_CRASH
    assert (stats["survivors"], stats["evicted_ranks"], stats["failed_ranks"]) == ([1, 2], [], [0])


@pytest.mark.parametrize("domain", DOMAINS)
def test_straggler_arrives_after_its_eviction(domain, tmp_path):
    lost, _, stats, returned, notes = LAUNCH[domain](
        "straggler_arrives_after_eviction", 3, 1, tmp_path, timeout_s=STRAGGLER_TIMEOUT_S
    )
    assert not lost
    assert returned == ["[3.0, 2.0]", None, "[3.0, 2.0]"]
    assert notes == {1: "evicted"}  # its own collective told it so
    assert (stats["survivors"], stats["evicted_ranks"], stats["failed_ranks"]) == ([0, 2], [1], [])


def test_a_thread_group_is_one_launch():
    """A group that lost its quorum stays lost; nothing resets it."""
    group = ThreadedGroup(2, timeout_s=TIMEOUT_S)

    def body(comm):
        if comm.rank == 1:
            raise ValueError("nope")
        return comm.allreduce(np.ones(1))

    for _ in range(2):
        with pytest.raises(QuorumLostError) as ei:
            group.run(body)
        assert isinstance(ei.value.__cause__, ValueError)
