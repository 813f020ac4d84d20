"""The membership rules of ``repro.comm.membership``, model-checked.

A Hypothesis state machine drives one :class:`Membership` over a plain
word array through the membership events in any order — a rank failing
or being evicted, a stale incarnation acting, recovery and spare events
at a step boundary, a joiner claiming its resync, a rank finishing, a
collective completing — and checks the protocol's invariants after each.
Rank threads and rank processes apply these same rules to their words
and add only payload movement and waiting, so what holds here holds for
both.  The admission planner's and the completion's own properties
follow.

``tests/conftest.py`` sets the search budget: the ``tier1`` profile by
default, ``--hypothesis-profile=slow`` for a longer search.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    precondition,
    rule,
)

from repro.comm.communicator import ReduceOp
from repro.comm.errors import QuorumLostError, RankEvictedError, RankFailedError
from repro.comm.membership import (
    ACTIVE,
    DEAD,
    DONE,
    Membership,
    complete,
    donor,
    plan_admissions,
    resync_crc,
)
from repro.faults import FaultEvent, FaultKind

MAX_WORLD = 5
ranks = st.integers(min_value=0, max_value=MAX_WORLD - 1)
any_rank = st.integers(min_value=-1, max_value=MAX_WORLD)  # out of range included
recovery_events = st.lists(
    st.one_of(
        st.builds(FaultEvent, kind=st.just(FaultKind.RANK_RECOVER), rank=any_rank),
        st.builds(
            FaultEvent, kind=st.just(FaultKind.SPARE_JOIN), rank=st.one_of(st.none(), any_rank)
        ),
    ),
    max_size=4,
)


def staged_crc(incarnation):
    """What a transport's stage callback returns: the resync payload's CRC."""
    return 1000 + incarnation


class MembershipModel(RuleBasedStateMachine):
    #: (rank, incarnation) a thread or process acts as — stale ones included.
    handles = Bundle("handles")

    @initialize(
        target=handles,
        world=st.integers(min_value=1, max_value=MAX_WORLD),
        spares=st.integers(min_value=0, max_value=3),
        auto_respawn=st.booleans(),
        data=st.data(),
    )
    def start(self, world, spares, auto_respawn, data):
        # Half the groups need one survivor, so most runs outlive their
        # first deaths and reach admissions; the rest may need every rank.
        quorum = data.draw(
            st.one_of(st.just(1), st.integers(min_value=1, max_value=world)), label="quorum"
        )
        self.m = Membership(world).reset(quorum, spares, auto_respawn)
        self.world, self.spares = world, spares
        self.gen = 0
        # Start mid-run: some ranks already died before the collective
        # whose membership the next boundary reads.
        dead = data.draw(st.sets(st.sampled_from(range(world)), max_size=world - quorum))
        for r in dead:
            assert self.m.fail(r)
        self.members = frozenset(self.m.survivors())
        self.slots = {}  # rank -> incarnation that contributed to ``gen``
        self.admitted = []  # (rank, incarnation, spare), in order
        self.claimed = set()
        self.incarnations = [0] * world
        self.lost = False
        return multiple(*[(r, 0) for r in range(world)])

    # -- events -----------------------------------------------------------

    @rule(handle=handles, evicted=st.booleans())
    def fail(self, handle, evicted):
        """A rank raises or is evicted, or a stale thread of it does."""
        rank, incarnation = handle
        m = self.m
        before = m.words.copy()
        current = m.is_current(rank, incarnation)
        assert m.fail(rank, incarnation, evicted=evicted) == current
        if current:
            self.slots.pop(rank, None)  # what both transports do with its slot
            assert m.status[rank] == DEAD and m.join[rank] == 0
        else:
            # A fenced incarnation never fails its successor.
            assert np.array_equal(m.words, before)

    @rule(rank=ranks)
    def evict_whoever_is_current(self, rank):
        """The peers' heartbeat timeout: no incarnation in hand."""
        if rank >= self.world:
            return
        m = self.m
        evictions = int(m.evictions[rank])
        active = m.status[rank] == ACTIVE
        assert m.fail(rank, evicted=True) == active
        assert m.evictions[rank] == evictions + active
        self.slots.pop(rank, None)

    @precondition(lambda self: any(self.m.incarnation))
    @rule(data=st.data())
    def stale_incarnation_acts(self, data):
        """A thread or process of a superseded incarnation wakes up."""
        stale = [(r, i) for r in range(self.world) for i in range(int(self.m.incarnation[r]))]
        rank, incarnation = data.draw(st.sampled_from(stale), label="stale handle")
        m = self.m
        before = m.words.copy()
        assert not m.is_current(rank, incarnation)  # so it never contributes
        assert not m.fail(rank, incarnation)
        assert not m.fail(rank, incarnation, evicted=True)
        m.done(rank, incarnation)
        with pytest.raises((QuorumLostError, RankEvictedError)):
            m.claim(rank, incarnation)
        # It neither fails, finishes nor claims for its successor.
        assert np.array_equal(m.words, before)

    @rule(handle=handles)
    def contribute(self, handle):
        """The gate both transports apply before a rank writes its slot."""
        rank, incarnation = handle
        if incarnation != self.m.incarnation[rank]:
            assert not self.m.is_current(rank, incarnation)  # fenced
        if self.m.is_current(rank, incarnation) and not self.m.quorum_lost:
            self.slots[rank] = incarnation

    @rule(handle=handles)
    def finish(self, handle):
        rank, incarnation = handle
        if rank in self.slots:
            return  # a rank waiting in a collective has not finished
        current = self.m.is_current(rank, incarnation)
        self.m.done(rank, incarnation)
        assert (self.m.status[rank] == DONE) >= current

    @rule(handle=handles)
    def claim(self, handle):
        rank, incarnation = handle
        m = self.m
        pending = (
            incarnation > 0
            and m.join[rank] == incarnation
            and m.is_current(rank, incarnation)
            and not m.quorum_lost
        )
        try:
            crc = m.claim(rank, incarnation)
        except (QuorumLostError, RankEvictedError):
            assert not pending
        else:
            assert pending and crc == staged_crc(incarnation)
            assert (rank, incarnation) not in self.claimed  # claimed once
            self.claimed.add((rank, incarnation))
            assert m.join[rank] == 0

    @rule()
    def complete(self):
        """The participants that have not contributed yet arrive, and the
        collective completes — unless the quorum is gone."""
        m = self.m
        parts = m.participants(self.gen)
        if not parts or m.quorum_lost:
            return
        for r in parts:
            self.slots.setdefault(r, int(m.incarnation[r]))
        assert m.check_quorum()
        # No collective completes below quorum, and it completes over
        # exactly its participants, each at its current incarnation.
        assert len(m.survivors()) >= m.quorum
        assert set(self.slots) == set(parts)
        assert all(m.incarnation[r] == inc for r, inc in self.slots.items())
        before = m.stats()
        contributions = {r: np.full(2, float(r + 1)) for r in parts}
        payload, error = m.completed("allreduce", ReduceOp.SUM, contributions)
        # Each admitted contribution is counted once.
        assert error is None and payload.tolist() == [float(sum(r + 1 for r in parts))] * 2
        after = m.stats()
        assert after["reductions"] == before["reductions"] + 1
        assert after["bytes_reduced"] == before["bytes_reduced"] + 16 * len(parts)
        self.members = frozenset(parts)
        self.gen += 1
        self.slots.clear()

    @rule(target=handles, events=recovery_events, data=st.data())
    def boundary(self, events, data):
        """The donor's decision at a step boundary, then its admissions."""
        m = self.m
        decision = m.admissions(self.members, events)
        # A function of the latched membership and the events alone (and
        # of what earlier admissions wrote): the same from words whose
        # status, admit generations and evictions say anything else.
        other = Membership(self.world, m.words.copy())
        statuses = st.lists(
            st.sampled_from([ACTIVE, DEAD, DONE]), min_size=self.world, max_size=self.world
        )
        other.status[:] = data.draw(statuses, label="other statuses")
        other.admit_gen[:] += 3
        other.evictions[:] += 1
        assert other.admissions(self.members, events) == decision
        admitted = [r for r, _ in decision]
        assert len(admitted) == len(set(admitted))
        assert not set(admitted) & self.members
        assert not any(m.join[r] for r in admitted)  # no admission pending
        assert sum(spare for _, spare in decision) <= m.spares_left
        new = []
        for rank, spare in decision:
            incarnation = self.admit(rank, spare)
            if incarnation:
                new.append((rank, incarnation))
            else:
                assert m.status[rank] != DEAD  # missing, but alive or done
        return multiple(*new)

    @rule(target=handles, spare=st.booleans(), data=st.data())
    def admit_directly(self, spare, data):
        """An admission outside the donor's decision: granted exactly when
        the rules allow it."""
        m = self.m
        dead = [r for r in range(self.world) if m.status[r] == DEAD]
        rank = data.draw(st.sampled_from(dead or range(self.world)), label="rank")
        allowed = (
            not m.quorum_lost
            and m.status[rank] == DEAD
            and not m.join[rank]
            and (not spare or m.spares_left > 0)
        )
        incarnation = self.admit(rank, spare)
        assert bool(incarnation) == allowed
        return multiple((rank, incarnation)) if incarnation else multiple()

    def admit(self, rank, spare):
        m = self.m
        incarnation = m.admit(rank, self.gen, spare, 8, staged_crc)
        if incarnation:
            # An incarnation is admitted at most once, and takes part from
            # this collective on, not in an earlier one.
            assert incarnation == self.incarnations[rank] + 1
            assert m.is_current(rank, incarnation) and m.join[rank] == incarnation
            assert rank in m.participants(self.gen)
            assert rank not in m.participants(self.gen - 1)
            self.admitted.append((rank, incarnation, spare))
        return incarnation

    # -- invariants ---------------------------------------------------------

    @invariant()
    def incarnations_only_grow(self):
        for r in range(self.world):
            assert self.m.incarnation[r] >= self.incarnations[r]
        self.incarnations = [int(i) for i in self.m.incarnation]

    @invariant()
    def spares_used_stay_within_the_pool(self):
        used = self.m.stats()["spares_used"]
        assert used == sum(spare for _, _, spare in self.admitted) <= self.spares
        assert self.m.spares_left == self.spares - used

    @invariant()
    def one_rejoin_per_admission(self):
        assert self.m.stats()["rejoins"] == sorted(r for r, _, _ in self.admitted)

    @invariant()
    def a_survivor_is_any_rank_not_dead(self):
        survivors = self.m.survivors()
        assert survivors == [r for r in range(self.world) if self.m.status[r] != DEAD]
        assert all(r in survivors for r in range(self.world) if self.m.status[r] == DONE)

    @invariant()
    def a_lost_quorum_stays_lost(self):
        assert self.m.quorum_lost >= self.lost
        self.lost = self.m.quorum_lost
        if not self.lost:
            assert len(self.m.survivors()) >= self.m.quorum


TestMembershipModel = MembershipModel.TestCase


# ---------------------------------------------------------------------------
# The planner and the completion, as properties
# ---------------------------------------------------------------------------


@given(recovery_events, st.sets(ranks), st.integers(min_value=0, max_value=3), st.booleans())
def test_spares_stay_in_the_pool_and_no_rank_is_admitted_twice(events, missing, spares, auto):
    due = plan_admissions(events, missing, spares, auto)
    admitted = [r for r, _ in due]
    assert len(admitted) == len(set(admitted))
    assert set(admitted) <= missing
    assert sum(spare for _, spare in due) <= spares


@given(st.sets(ranks, min_size=1), st.integers(min_value=1, max_value=3))
def test_anonymous_spare_takes_the_lowest_dead_rank(missing, spares):
    join = FaultEvent(FaultKind.SPARE_JOIN, rank=None, step=0)
    assert plan_admissions([join], missing, spares, False) == [(min(missing), True)]


@given(ranks, st.integers(min_value=0, max_value=3))
def test_recover_takes_no_spare(rank, spares):
    """The original node came back: no spare drawn, none replaces it."""
    recover = FaultEvent(FaultKind.RANK_RECOVER, rank=rank, step=0)
    assert plan_admissions([recover], [rank], spares, True) == [(rank, False)]


def test_auto_respawn_serves_missing_ranks_in_rank_order():
    assert plan_admissions([], [3, 1], 1, True) == [(1, True)]
    assert plan_admissions([], [3, 1], 2, True) == [(1, True), (3, True)]
    assert plan_admissions([], [3, 1], 2, False) == []


def test_the_donor_is_the_lowest_latched_member():
    assert donor(frozenset({3, 1, 2})) == 1
    assert donor(None) is None  # a joiner before its first collective


@given(st.permutations(range(4)))
def test_completion_is_in_rank_order_whatever_the_arrival_order(order):
    rng = np.random.default_rng(0)
    arrays = {r: rng.standard_normal(5).astype(np.float32) for r in range(4)}
    arrived = {r: arrays[r] for r in order}
    for kind, arg in (("allreduce", ReduceOp.MEAN), ("bcast", 2)):
        payload, error = complete(kind, arg, arrived)
        want, _ = complete(kind, arg, dict(sorted(arrays.items())))
        assert error is None and payload.tobytes() == want.tobytes()


def test_a_bcast_whose_root_left_fails_every_participant():
    payload, error = complete("bcast", 0, {1: np.ones(1), 2: np.ones(1)})
    assert payload is None and isinstance(error, RankFailedError)
    assert error.failed_ranks == (0,)
    with pytest.raises(RuntimeError, match="unknown collective"):
        complete("scatter", 0, {0: np.ones(1)})


def test_resync_crc_covers_scalar_entries():
    """Unlike a checkpoint's CRC: a flipped step counter must fail the resync."""
    payload = {"flat": np.arange(4.0), "step_count": np.int64(7)}
    assert resync_crc(payload) != resync_crc({**payload, "step_count": np.int64(8)})
