"""Tests for the deterministic fault-injection framework."""

import numpy as np
import pytest

from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    InjectedCrash,
    InjectedStageError,
)
from repro.io.records import RecordCorruptError, RecordReader, write_record_file


class TestFaultPlan:
    def test_empty_plan(self):
        plan = FaultPlan(seed=3)
        assert plan.empty and len(plan) == 0
        assert "no faults" in plan.describe()

    def test_events_need_rank(self):
        with pytest.raises(ValueError, match="need a rank"):
            FaultEvent(FaultKind.RANK_CRASH, step=2)

    def test_bad_fields(self):
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.STAGE_FAIL, step=-1)
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.STAGE_FAIL, repeats=0)
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.RANK_HANG, rank=0, delay_s=-1.0)

    def test_sample_deterministic(self):
        kwargs = dict(
            n_ranks=8, n_steps=40, crash_rate=0.01, hang_rate=0.02,
            stage_fail_rate=0.05, n_stage_ops=50,
        )
        a = FaultPlan.sample(seed=11, **kwargs)
        b = FaultPlan.sample(seed=11, **kwargs)
        c = FaultPlan.sample(seed=12, **kwargs)
        assert a.events == b.events
        assert a.events != c.events

    def test_sample_crash_at_most_once_per_rank(self):
        plan = FaultPlan.sample(seed=0, n_ranks=4, n_steps=500, crash_rate=0.05)
        crashes = plan.of_kind(FaultKind.RANK_CRASH)
        ranks = [e.rank for e in crashes]
        assert len(ranks) == len(set(ranks))

    def test_sample_rate_validation(self):
        with pytest.raises(ValueError, match="crash_rate"):
            FaultPlan.sample(seed=0, n_ranks=2, n_steps=2, crash_rate=1.5)

    def test_describe_lists_events(self):
        plan = FaultPlan(
            seed=1,
            events=[FaultEvent(FaultKind.RANK_CRASH, rank=2, step=5)],
        )
        assert "rank_crash" in plan.describe()
        assert "rank=2" in plan.describe()

    def test_recover_event_needs_rank(self):
        with pytest.raises(ValueError, match="need a rank"):
            FaultEvent(FaultKind.RANK_RECOVER, step=2)
        FaultEvent(FaultKind.SPARE_JOIN, step=2)  # rank optional: lowest dead


class TestWithRecovery:
    def test_derives_recovery_per_crash(self):
        plan = FaultPlan(
            seed=5,
            events=[
                FaultEvent(FaultKind.RANK_CRASH, rank=1, step=3),
                FaultEvent(FaultKind.RANK_CRASH, rank=2, step=7),
                FaultEvent(FaultKind.RANK_HANG, rank=0, step=4, delay_s=0.1),
            ],
        )
        out = plan.with_recovery(4)
        recoveries = out.of_kind(FaultKind.RANK_RECOVER)
        assert [(e.rank, e.step) for e in recoveries] == [(1, 7), (2, 11)]
        # Originals are preserved; hangs get no recovery (eviction is
        # the group's call, not the schedule's).
        assert len(out) == len(plan) + 2
        assert out.seed == plan.seed

    def test_existing_recovery_not_duplicated(self):
        plan = FaultPlan(
            events=[
                FaultEvent(FaultKind.RANK_CRASH, rank=1, step=3),
                FaultEvent(FaultKind.RANK_RECOVER, rank=1, step=5),
            ]
        )
        out = plan.with_recovery(4)
        assert len(out.of_kind(FaultKind.RANK_RECOVER)) == 1

    def test_validates_after_steps(self):
        with pytest.raises(ValueError):
            FaultPlan().with_recovery(0)


class TestInjector:
    def test_crash_fires_once(self):
        inj = FaultInjector(
            FaultPlan(events=[FaultEvent(FaultKind.RANK_CRASH, rank=1, step=3)])
        )
        inj.maybe_crash(0, 3)  # wrong rank: no fire
        inj.maybe_crash(1, 2)  # wrong step: no fire
        with pytest.raises(InjectedCrash):
            inj.maybe_crash(1, 3)
        inj.maybe_crash(1, 3)  # consumed: elastic restart must not re-crash
        assert inj.fired[FaultKind.RANK_CRASH] == 1

    def test_hang_delay(self):
        inj = FaultInjector(
            FaultPlan(events=[FaultEvent(FaultKind.RANK_HANG, rank=0, step=1, delay_s=0.25)])
        )
        assert inj.hang_delay(0, 0) == 0.0
        assert inj.hang_delay(0, 1) == 0.25
        assert inj.hang_delay(0, 1) == 0.0  # one-shot

    def test_stage_fail_with_repeats(self):
        inj = FaultInjector(
            FaultPlan(events=[FaultEvent(FaultKind.STAGE_FAIL, step=1, repeats=2)])
        )
        inj.on_stage("f0")  # stage-in 0: clean
        with pytest.raises(InjectedStageError):
            inj.on_stage("f1")  # stage-in 1, attempt 0
        with pytest.raises(InjectedStageError):
            inj.on_stage("f1", attempt=1)  # retry still fails (repeats=2)
        inj.on_stage("f1", attempt=2)  # retry succeeds
        assert inj.fired[FaultKind.STAGE_FAIL] == 2

    def test_message_corruption_flips_bytes(self):
        inj = FaultInjector(
            FaultPlan(events=[FaultEvent(FaultKind.MESSAGE_CORRUPT, rank=0, step=0)])
        )
        assert inj.corrupts_messages
        arr = np.ones(16, dtype=np.float32)
        wire = inj.corrupt_message(0, 0, arr)
        assert not np.array_equal(wire, arr)
        np.testing.assert_array_equal(arr, np.ones(16, dtype=np.float32))  # source intact
        # consumed: next collective is clean
        assert inj.corrupt_message(0, 0, arr) is arr

    def test_recoveries_due_consumed_at_most_once(self):
        inj = FaultInjector(
            FaultPlan(
                events=[
                    FaultEvent(FaultKind.RANK_RECOVER, rank=1, step=4),
                    FaultEvent(FaultKind.SPARE_JOIN, rank=None, step=4),
                    FaultEvent(FaultKind.RANK_RECOVER, rank=2, step=6),
                ]
            )
        )
        assert inj.has_recoveries
        assert inj.recoveries_due(3) == []
        due = inj.recoveries_due(4)
        assert {(e.kind, e.rank) for e in due} == {
            (FaultKind.RANK_RECOVER, 1),
            (FaultKind.SPARE_JOIN, None),
        }
        # At-most-once: the first survivor to reach the boundary takes
        # them; later callers (and replays) see nothing.
        assert inj.recoveries_due(4) == []
        assert len(inj.recoveries_due(6)) == 1
        assert inj.fired[FaultKind.RANK_RECOVER] == 2
        assert inj.fired[FaultKind.SPARE_JOIN] == 1

    def test_no_recoveries_flag(self):
        inj = FaultInjector(
            FaultPlan(events=[FaultEvent(FaultKind.RANK_CRASH, rank=0, step=1)])
        )
        assert not inj.has_recoveries
        assert inj.recoveries_due(1) == []

    def test_empty_injector_is_noop(self):
        inj = FaultInjector()
        inj.maybe_crash(0, 0)
        assert inj.hang_delay(0, 0) == 0.0
        assert inj.on_stage("x") is None
        arr = np.zeros(4)
        assert inj.corrupt_message(0, 0, arr) is arr
        assert inj.fired_total() == 0
        assert inj.summary() == {}

    def test_corrupt_record_file(self, tmp_path):
        rng = np.random.default_rng(0)
        vols = [rng.standard_normal((4, 4, 4)).astype(np.float32) for _ in range(3)]
        tgts = [rng.random(3).astype(np.float32) for _ in range(3)]
        path = tmp_path / "data.rec"
        write_record_file(path, vols, tgts)
        inj = FaultInjector(
            FaultPlan(events=[FaultEvent(FaultKind.RECORD_CORRUPT, step=1)])
        )
        assert inj.corrupt_record_file(path) == 1
        with pytest.raises(RecordCorruptError):
            list(RecordReader(path))
        # records 0 and 2 still readable in non-strict mode
        reader = RecordReader(path, strict=False)
        assert len(list(reader)) == 2
        assert reader.records_skipped == 1


class TestPlanValidation:
    """Feasibility checks the faultsim CLI runs before launching."""

    def test_feasible_plan_has_no_problems(self):
        plan = FaultPlan(events=[
            FaultEvent(FaultKind.RANK_CRASH, rank=1, step=3),
            FaultEvent(FaultKind.RANK_RECOVER, rank=1, step=6),
        ])
        assert plan.validate(n_ranks=4, n_steps=10) == []

    def test_rank_out_of_range(self):
        plan = FaultPlan(events=[FaultEvent(FaultKind.RANK_CRASH, rank=4, step=0)])
        (problem,) = plan.validate(n_ranks=4)
        assert "rank 4" in problem and "0..3" in problem

    def test_recovery_past_end_of_run(self):
        plan = FaultPlan(events=[
            FaultEvent(FaultKind.RANK_CRASH, rank=0, step=2),
            FaultEvent(FaultKind.SPARE_JOIN, rank=0, step=50),
        ])
        (problem,) = plan.validate(n_ranks=2, n_steps=10)
        assert "never be admitted" in problem

    def test_no_step_bound_skips_schedule_check(self):
        plan = FaultPlan(events=[FaultEvent(FaultKind.RANK_RECOVER, rank=0, step=50)])
        assert plan.validate(n_ranks=1) == []

    def test_unkeyed_kinds_ignore_rank_bound(self):
        # STAGE_FAIL's step is a stage-in ordinal, not a rank — never flagged.
        plan = FaultPlan(events=[FaultEvent(FaultKind.STAGE_FAIL, step=999)])
        assert plan.validate(n_ranks=1, n_steps=1) == []

    def test_bad_n_ranks_rejected(self):
        with pytest.raises(ValueError, match="n_ranks"):
            FaultPlan().validate(n_ranks=0)


class TestReplicaFaults:
    """REPLICA_CRASH / REPLICA_SLOW — the serving tier's fault domain."""

    def test_sample_replica_rates_deterministic(self):
        kwargs = dict(
            n_ranks=1, n_steps=1,
            replica_crash_rate=0.1, replica_slow_rate=0.2,
            replica_slow_s=0.07, n_dispatches=100,
        )
        a = FaultPlan.sample(seed=5, **kwargs)
        b = FaultPlan.sample(seed=5, **kwargs)
        assert a.events == b.events
        crashes = a.of_kind(FaultKind.REPLICA_CRASH)
        slows = a.of_kind(FaultKind.REPLICA_SLOW)
        assert crashes and slows
        assert all(e.delay_s == 0.07 for e in slows)

    def test_sample_replica_rate_validation(self):
        with pytest.raises(ValueError, match="replica_crash_rate"):
            FaultPlan.sample(seed=0, n_ranks=1, n_steps=1,
                             replica_crash_rate=2.0, n_dispatches=5)

    def test_on_dispatch_consumes_at_ordinal(self):
        plan = FaultPlan(events=[
            FaultEvent(FaultKind.REPLICA_CRASH, step=1),
            FaultEvent(FaultKind.REPLICA_SLOW, step=2, delay_s=0.5),
        ])
        inj = FaultInjector(plan)
        assert inj.on_dispatch(0) == (False, 0.0)   # dispatch 0: clean
        assert inj.on_dispatch(1) == (True, 0.0)    # dispatch 1: crash
        assert inj.on_dispatch(1) == (False, 0.5)   # dispatch 2: slow
        assert inj.on_dispatch(0) == (False, 0.0)
        assert inj.fired[FaultKind.REPLICA_CRASH] == 1
        assert inj.fired[FaultKind.REPLICA_SLOW] == 1

    def test_on_dispatch_pinned_replica(self):
        plan = FaultPlan(events=[
            FaultEvent(FaultKind.REPLICA_CRASH, rank=2, step=0),
        ])
        inj = FaultInjector(plan)
        # Dispatch 0 goes to replica 1 — pinned event doesn't match, and
        # the dispatch counter still advances past its ordinal.
        assert inj.on_dispatch(1) == (False, 0.0)
        assert inj.on_dispatch(2) == (False, 0.0)
        assert inj.fired_total() == 0

    def test_on_dispatch_empty_plan_noop(self):
        assert FaultInjector().on_dispatch(0) == (False, 0.0)
