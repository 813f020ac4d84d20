"""The admission planner both rank groups call, as properties."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.admission import plan_admissions, resync_crc
from repro.faults import FaultEvent, FaultKind

SIZE = 6
ranks = st.integers(min_value=0, max_value=SIZE - 1)
any_rank = st.integers(min_value=-1, max_value=SIZE)  # out of range included
events = st.lists(
    st.one_of(
        st.builds(FaultEvent, kind=st.just(FaultKind.RANK_RECOVER), rank=any_rank),
        st.builds(
            FaultEvent, kind=st.just(FaultKind.SPARE_JOIN), rank=st.one_of(st.none(), any_rank)
        ),
    ),
    max_size=8,
)


@st.composite
def situations(draw):
    """A reachable planner input: every queued rank holds a reserved
    spare, so the pool is ``spares_left + len(queued)`` at most."""
    dead = draw(st.sets(ranks))
    queued = draw(st.lists(ranks, unique=True, max_size=3))
    spares_left = draw(st.integers(min_value=0, max_value=3))
    return draw(events), dead, spares_left, queued


@settings(max_examples=300, deadline=None)
@given(situations())
def test_spares_stay_in_the_pool_and_no_rank_is_admitted_twice(situation):
    evs, dead, spares_left, queued = situation
    pool = spares_left + len(queued)
    due, left = plan_admissions(evs, dead, spares_left, queued)
    admitted = [r for r, _ in due]
    assert len(admitted) == len(set(admitted))
    assert set(admitted) <= dead
    assert 0 <= left <= pool
    # Every spare is either still in the pool or went in with a rank.
    assert left + sum(spare for _, spare in due) == pool


@settings(max_examples=100, deadline=None)
@given(ranks, st.integers(min_value=0, max_value=3))
def test_recover_of_a_queued_rank_returns_its_spare(rank, spares_left):
    recover = FaultEvent(FaultKind.RANK_RECOVER, rank=rank, step=0)
    due, left = plan_admissions([recover], {rank}, spares_left, [rank])
    assert due == [(rank, False)]
    assert left == spares_left + 1


@settings(max_examples=100, deadline=None)
@given(st.sets(ranks, min_size=1), st.integers(min_value=1, max_value=3))
def test_anonymous_spare_takes_the_lowest_dead_rank(dead, spares_left):
    join = FaultEvent(FaultKind.SPARE_JOIN, rank=None, step=0)
    due, left = plan_admissions([join], dead, spares_left, [])
    assert due == [(min(dead), True)]
    assert left == spares_left - 1


def test_queue_is_served_in_order_and_an_unusable_entry_is_refunded():
    due, left = plan_admissions([], {1, 3}, 0, [3, 2, 1])
    assert due == [(3, True), (1, True)]
    assert left == 1  # rank 2 is not dead any more


def test_resync_crc_covers_scalar_entries():
    """Unlike a checkpoint's CRC: a flipped step counter must fail the resync."""
    payload = {"flat": np.arange(4.0), "step_count": np.int64(7)}
    assert resync_crc(payload) != resync_crc({**payload, "step_count": np.int64(8)})
