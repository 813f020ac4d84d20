"""Tests for the consolidated retry/backoff helper.

The staging tier's stage-in retries draw their jitter here, so its
determinism contract — same seed, same delays, in draw order — is
load-bearing for every staging fault benchmark's bitwise-replay
assertion.
"""

import numpy as np
import pytest

from repro.utils.retry import RetryPolicy, jittered_delay
from repro.utils.rng import new_rng


class TestRetryPolicy:
    def test_exponential_schedule(self):
        p = RetryPolicy(max_attempts=5, base_delay_s=0.01, multiplier=2.0, max_delay_s=1.0)
        assert [p.delay(a) for a in range(4)] == [0.01, 0.02, 0.04, 0.08]

    def test_cap(self):
        p = RetryPolicy(base_delay_s=0.5, multiplier=10.0, max_delay_s=1.0)
        assert p.delay(3) == 1.0


class TestJitteredDelay:
    POLICY = RetryPolicy(max_attempts=6, base_delay_s=0.1, multiplier=2.0, max_delay_s=10.0)

    def test_no_jitter_is_bare_schedule(self):
        for attempt in range(5):
            assert jittered_delay(self.POLICY, attempt) == self.POLICY.delay(attempt)

    def test_no_rng_is_bare_schedule(self):
        # A jitter fraction without a generator cannot randomize.
        assert jittered_delay(self.POLICY, 2, jitter=0.5) == self.POLICY.delay(2)

    def test_seeded_jitter_is_deterministic(self):
        a = [jittered_delay(self.POLICY, i, jitter=0.25, rng=new_rng(7)) for i in range(6)]
        b = [jittered_delay(self.POLICY, i, jitter=0.25, rng=new_rng(7)) for i in range(6)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [jittered_delay(self.POLICY, i, jitter=0.25, rng=new_rng(7)) for i in range(6)]
        c = [jittered_delay(self.POLICY, i, jitter=0.25, rng=new_rng(8)) for i in range(6)]
        assert a != c

    def test_jitter_bounds(self):
        rng = new_rng(3)
        for attempt in range(50):
            base = self.POLICY.delay(attempt % 6)
            d = jittered_delay(self.POLICY, attempt % 6, jitter=0.25, rng=rng)
            assert 0.75 * base <= d <= 1.25 * base

    def test_one_draw_per_call(self):
        # The helper consumes exactly one uniform per call, so shared
        # generators stay in lockstep with the historical inline code.
        rng = new_rng(11)
        jittered_delay(self.POLICY, 0, jitter=0.25, rng=rng)
        ref = new_rng(11)
        ref.uniform(-1.0, 1.0)
        assert rng.uniform() == ref.uniform()

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValueError):
            jittered_delay(self.POLICY, 0, jitter=1.5, rng=new_rng(0))

    def test_matches_staging_inline_formula(self):
        # The formula the staging tier used before consolidation.
        rng_new = new_rng(5)
        rng_old = new_rng(5)
        for attempt in range(4):
            got = jittered_delay(self.POLICY, attempt, jitter=0.25, rng=rng_new)
            want = self.POLICY.delay(attempt) * (
                1.0 + 0.25 * float(rng_old.uniform(-1.0, 1.0))
            )
            assert got == want


def test_numpy_interop():
    # The helper accepts any object with .uniform — numpy Generators in
    # practice — and returns a builtin float either way.
    d = jittered_delay(RetryPolicy(), 0, jitter=0.1, rng=np.random.default_rng(0))
    assert isinstance(d, float)
