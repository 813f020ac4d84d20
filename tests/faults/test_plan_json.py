"""JSON round-trip contract for fault plans.

The real-process backend ships a seeded schedule across a process
boundary as JSON; these tests pin the guarantee that makes the replay
bitwise: ``from_json(to_json(plan)) == plan`` for every event field,
and documents we cannot faithfully interpret are rejected loudly.
"""

import json

import pytest

from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.faults.plan import PLAN_SCHEMA_VERSION


def sample_plan():
    return FaultPlan.sample(
        seed=11,
        n_ranks=4,
        n_steps=12,
        crash_rate=0.05,
        hang_rate=0.05,
        corrupt_rate=0.05,
        target_slow_rate=0.1,
        n_staged_reads=20,
        stage_fail_rate=0.2,
        n_stage_ops=6,
        stage_fail_repeats=3,
    )


class TestRoundTrip:
    def test_sampled_plan_survives_round_trip(self):
        plan = sample_plan()
        assert not plan.empty  # the sample actually drew events
        rebuilt = FaultPlan.from_json(plan.to_json())
        assert rebuilt == plan

    def test_every_field_round_trips(self):
        plan = FaultPlan(
            seed=3,
            events=(
                FaultEvent(FaultKind.PROC_KILL, rank=2, step=5),
                FaultEvent(FaultKind.RANK_HANG, rank=0, step=1, delay_s=0.25),
                FaultEvent(FaultKind.STAGE_FAIL, step=7, repeats=4),
                FaultEvent(FaultKind.RANK_RECOVER, rank=2, step=9),
            ),
        )
        rebuilt = FaultPlan.from_json(plan.to_json())
        assert rebuilt.seed == 3
        assert rebuilt.events == plan.events

    def test_empty_plan_round_trips(self):
        plan = FaultPlan(seed=42)
        rebuilt = FaultPlan.from_json(plan.to_json())
        assert rebuilt.empty and rebuilt.seed == 42

    def test_with_recovery_commutes_with_serialization(self):
        plan = FaultPlan(
            seed=1, events=(FaultEvent(FaultKind.PROC_KILL, rank=1, step=2),)
        )
        via_json = FaultPlan.from_json(plan.to_json()).with_recovery(4)
        direct = plan.with_recovery(4)
        assert via_json == direct
        assert direct.of_kind(FaultKind.RANK_RECOVER)[0].step == 6

    def test_save_and_load(self, tmp_path):
        plan = sample_plan()
        path = plan.save(tmp_path / "plans" / "p.json")
        assert path.exists()
        assert FaultPlan.load(path) == plan


class TestDocumentShape:
    def test_document_is_versioned_plain_json(self):
        doc = json.loads(sample_plan().to_json())
        assert doc["schema_version"] == PLAN_SCHEMA_VERSION
        assert isinstance(doc["seed"], int)
        for entry in doc["events"]:
            assert set(entry) == {"kind", "rank", "step", "delay_s", "repeats"}

    def test_kinds_serialize_as_stable_strings(self):
        plan = FaultPlan(
            seed=0, events=(FaultEvent(FaultKind.PROC_KILL, rank=0, step=0),)
        )
        doc = json.loads(plan.to_json())
        assert doc["events"][0]["kind"] == "proc_kill"


class TestRejection:
    def test_not_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")

    def test_missing_schema_version(self):
        with pytest.raises(ValueError, match="schema_version"):
            FaultPlan.from_json('{"seed": 1, "events": []}')

    def test_future_schema_version(self):
        doc = json.dumps({"schema_version": PLAN_SCHEMA_VERSION + 1, "events": []})
        with pytest.raises(ValueError, match="newer than"):
            FaultPlan.from_json(doc)

    def test_unknown_kind(self):
        doc = json.dumps(
            {
                "schema_version": PLAN_SCHEMA_VERSION,
                "seed": 0,
                "events": [{"kind": "solar_flare", "rank": 0, "step": 0}],
            }
        )
        with pytest.raises(ValueError, match="solar_flare"):
            FaultPlan.from_json(doc)

    @pytest.mark.parametrize("kind", ["read_error", "read_delay"])
    def test_removed_read_kinds_are_unknown(self, kind):
        # Dataset reads are no longer a fault domain: a plan naming one
        # is refused, not silently trained through.
        doc = json.dumps(
            {
                "schema_version": PLAN_SCHEMA_VERSION,
                "seed": 0,
                "events": [{"kind": kind, "step": 0}],
            }
        )
        with pytest.raises(ValueError, match=f"unknown fault kind '{kind}'"):
            FaultPlan.from_json(doc)

    def test_invalid_event_fields_rejected_by_event_validation(self):
        doc = json.dumps(
            {
                "schema_version": PLAN_SCHEMA_VERSION,
                "seed": 0,
                "events": [{"kind": "rank_crash", "rank": None, "step": 0}],
            }
        )
        with pytest.raises(ValueError, match="need a rank"):
            FaultPlan.from_json(doc)


class TestProcKillSemantics:
    def test_proc_kill_needs_rank(self):
        with pytest.raises(ValueError, match="need a rank"):
            FaultEvent(FaultKind.PROC_KILL)

    def test_validate_flags_out_of_range_proc_kill(self):
        plan = FaultPlan(
            seed=0, events=(FaultEvent(FaultKind.PROC_KILL, rank=7, step=0),)
        )
        problems = plan.validate(n_ranks=4)
        assert len(problems) == 1 and "rank 7" in problems[0]

    def test_with_recovery_covers_proc_kill(self):
        plan = FaultPlan(
            seed=0,
            events=(
                FaultEvent(FaultKind.RANK_CRASH, rank=0, step=1),
                FaultEvent(FaultKind.PROC_KILL, rank=1, step=2),
            ),
        ).with_recovery(3)
        recoveries = plan.of_kind(FaultKind.RANK_RECOVER)
        assert {(e.rank, e.step) for e in recoveries} == {(0, 4), (1, 5)}
