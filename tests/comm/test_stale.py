"""Unit tests for the bounded-staleness partial collective
(:mod:`repro.comm.stale`): config validation, sync degeneracy, quorum
closes, the hard staleness bound, SAGN windowing, monitor decisions,
and deterministic replay."""

import numpy as np
import pytest

from repro.comm.communicator import ReduceOp, reduce_arrays
from repro.comm.stale import StaleGroup, StalenessConfig, StragglerMonitor
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

BASE = 0.01


def run_group(group, n_steps, grad=None):
    """Drive a group for ``n_steps``; returns per-step (loss, avg)."""
    out = []
    for step in range(n_steps):
        starters = group.begin_step(step)
        contribs = {
            r: (float(r + step), np.full(8, float(r), dtype=np.float64) if grad is None else grad(r, step))
            for r in starters
        }
        out.append(group.complete_step(step, contribs))
    return out


def slow_rank_group(config, delay_s=0.09, slow_steps=10, size=4, rank=1, **kw):
    plan = FaultPlan(seed=1).with_slow_rank(rank, delay_s, n_steps=slow_steps)
    return StaleGroup(size, config, injector=FaultInjector(plan), **kw)


class TestStalenessConfig:
    def test_defaults_valid(self):
        cfg = StalenessConfig()
        assert cfg.monitor_enabled

    @pytest.mark.parametrize(
        "kw",
        [
            {"staleness_bound": -1},
            {"quorum_fraction": 0.0},
            {"quorum_fraction": 1.5},
            {"window": 0},
            {"base_step_time_s": 0.0},
            {"quarantine_factor": 1.0},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            StalenessConfig(**kw)

    def test_quorum_resolution(self):
        cfg = StalenessConfig(quorum_fraction=0.5)
        assert cfg.resolve_quorum(4) == 2
        assert cfg.resolve_quorum(1) == 1
        assert StalenessConfig(quorum_fraction=1.0).resolve_quorum(5) == 5

    def test_monitor_disable(self):
        assert not StalenessConfig(quarantine_factor=None).monitor_enabled

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            StaleGroup(2, mode="async")


class TestSyncDegeneracy:
    """``staleness_bound=0`` must behave exactly like a synchronous
    rank-order mean reduction."""

    def test_matches_reduce_arrays(self):
        g = StaleGroup(4, StalenessConfig(staleness_bound=0))
        results = run_group(g, 3)
        expected = reduce_arrays(
            [np.full(8, float(r)) for r in range(4)], ReduceOp.MEAN
        )
        for step, (loss, avg) in enumerate(results):
            assert np.array_equal(avg, expected)
            assert loss == float(np.mean([r + step for r in range(4)]))

    def test_all_ranks_start_every_step(self):
        g = StaleGroup(3, StalenessConfig(staleness_bound=0))
        for step in range(3):
            assert g.begin_step(step) == [0, 1, 2]
            g.complete_step(step, {r: (0.0, np.ones(4)) for r in range(3)})
        assert g.contributions == [3, 3, 3]
        assert g.max_staleness == 0
        assert g.reductions == 3

    def test_virtual_clock_advances_by_base_step(self):
        g = StaleGroup(2, StalenessConfig(staleness_bound=0, base_step_time_s=0.5))
        run_group(g, 4)
        assert g.virtual_time_s == pytest.approx(2.0)


class TestStragglerFolding:
    def test_straggler_skips_steps_and_folds_late(self):
        cfg = StalenessConfig(staleness_bound=4, quorum_fraction=0.5,
                              quarantine_factor=None, base_step_time_s=BASE)
        g = slow_rank_group(cfg, delay_s=9 * BASE, slow_steps=10)
        run_group(g, 20)
        assert g.late_folds > 0
        assert 0 < g.max_staleness <= 4
        assert g.contributions[1] < g.contributions[0]
        # A quorum-closed run beats the sync run in virtual time: sync
        # pays the full straggler delay every step it is slow.
        sync_vt = 10 * (10 * BASE) + 10 * BASE
        assert g.virtual_time_s < sync_vt / 2

    def test_bound_never_exceeded(self):
        for bound in (1, 2, 4):
            cfg = StalenessConfig(staleness_bound=bound, quorum_fraction=0.5,
                                  quarantine_factor=None, base_step_time_s=BASE)
            g = slow_rank_group(cfg, delay_s=20 * BASE, slow_steps=30)
            run_group(g, 30)
            assert g.max_staleness <= bound
            assert g.bound_waits > 0

    def test_busy_rank_not_a_starter(self):
        cfg = StalenessConfig(staleness_bound=4, quorum_fraction=0.5,
                              quarantine_factor=None, base_step_time_s=BASE)
        g = slow_rank_group(cfg, delay_s=9 * BASE, slow_steps=4)
        g.complete_step(0, {r: (0.0, np.ones(4)) for r in g.begin_step(0)})
        # Rank 1's gradient is still in flight at step 1.
        assert g.begin_step(1) == [0, 2, 3]

    def test_stats_payload(self):
        g = StaleGroup(2, StalenessConfig(staleness_bound=0))
        run_group(g, 2)
        s = g.stats()
        assert s["mode"] == "ssgd"
        assert s["reductions"] == 2
        assert s["bytes_reduced"] > 0
        assert s["contributions"] == [2, 2]
        assert s["quarantined_ranks"] == []


class TestSAGNWindow:
    def test_window_one_matches_ssgd(self):
        cfg = StalenessConfig(staleness_bound=3, quorum_fraction=0.5,
                              quarantine_factor=None, window=1, base_step_time_s=BASE)
        a = slow_rank_group(cfg, delay_s=5 * BASE, slow_steps=8)
        b = slow_rank_group(cfg, delay_s=5 * BASE, slow_steps=8)
        b.mode = "sagn"
        ra = run_group(a, 16)
        rb = run_group(b, 16)
        for (la, ga), (lb, gb) in zip(ra, rb):
            assert la == lb
            assert np.array_equal(ga, gb)

    def test_window_defers_late_folds(self):
        cfg = StalenessConfig(staleness_bound=4, quorum_fraction=0.5,
                              quarantine_factor=None, window=3, base_step_time_s=BASE)
        g = slow_rank_group(cfg, delay_s=3 * BASE, slow_steps=12, size=4)
        g2 = StaleGroup(4, cfg, mode="sagn",
                        injector=FaultInjector(FaultPlan(seed=1).with_slow_rank(1, 3 * BASE, n_steps=12)))
        run_group(g, 12)
        run_group(g2, 12)
        # Same arrivals, but the windowed group folds them in batches —
        # never past the bound.
        assert g2.max_staleness <= 4
        assert g2.late_folds > 0
        assert g2.max_staleness >= g.max_staleness


class TestMonitor:
    def make(self, size=4, **cfg_kw):
        cfg = StalenessConfig(staleness_bound=4, quorum_fraction=0.5,
                              base_step_time_s=BASE, **cfg_kw)
        mon = StragglerMonitor(size, cfg)
        return cfg, mon

    def test_quarantine_and_rehab_cycle(self):
        cfg, mon = self.make()
        g = slow_rank_group(cfg, delay_s=9 * BASE, slow_steps=10, monitor=mon)
        run_group(g, 40)
        assert g.quarantines == 1
        assert g.rehabs == 1
        assert g.stats()["quarantined_ranks"] == [1]
        assert g.stats()["rehabilitated_ranks"] == [1]
        assert 1 in g.sync_ranks  # readmitted by the end
        assert mon.quarantine_log and mon.quarantine_log[0][0] == 1
        assert mon.rehab_log and mon.rehab_log[0][0] == 1
        assert mon.rehab_log[0][1] > mon.quarantine_log[0][1]

    def test_quarantined_rank_does_not_gate_quorum(self):
        cfg, mon = self.make()
        g = slow_rank_group(cfg, delay_s=9 * BASE, slow_steps=40, monitor=mon)
        run_group(g, 40)
        assert g.quarantines == 1
        assert g.rehabs == 0  # never recovers: stays quarantined
        assert g.dropped_stale > 0  # async arrivals past the bound discarded
        # After quarantine the fast ranks close steps at base pace.
        assert g.virtual_time_s < 40 * 2 * BASE

    def test_median_excludes_self_so_two_rank_groups_work(self):
        cfg, mon = self.make(size=2)
        g = slow_rank_group(cfg, delay_s=9 * BASE, slow_steps=12, size=2, monitor=mon)
        run_group(g, 12)
        assert g.quarantines == 1

    def test_no_quarantine_without_faults(self):
        cfg, mon = self.make()
        g = StaleGroup(4, cfg, monitor=mon)
        run_group(g, 20)
        assert g.quarantines == 0
        assert all(v == pytest.approx(BASE) for v in mon.ewma.values())

    def test_ewma_published_on_registry(self):
        cfg = StalenessConfig(staleness_bound=4, base_step_time_s=BASE)
        metrics = MetricsRegistry()
        mon = StragglerMonitor(2, cfg, metrics=metrics)
        g = StaleGroup(2, cfg, monitor=mon, metrics=metrics)
        run_group(g, 3)
        assert metrics.value("stale.rank0.latency_ewma_s") == pytest.approx(BASE)
        assert metrics.value("stale.contributions") == 6
        assert metrics.value("stale.staleness") is not None


class TestObservability:
    def test_metrics_and_instants(self):
        cfg = StalenessConfig(staleness_bound=4, quorum_fraction=0.5,
                              base_step_time_s=BASE)
        metrics = MetricsRegistry()
        tracer = Tracer()
        mon = StragglerMonitor(4, cfg, metrics=metrics, tracer=tracer)
        plan = FaultPlan(seed=1).with_slow_rank(1, 9 * BASE, n_steps=10)
        g = StaleGroup(4, cfg, injector=FaultInjector(plan), monitor=mon,
                       metrics=metrics, tracer=tracer)
        run_group(g, 40)
        assert metrics.value("stale.quarantines") == 1
        assert metrics.value("stale.rehabs") == 1
        assert metrics.value("stale.late_folds") == g.late_folds
        names = [name for _, name, _ in tracer.sequence()]
        assert "quarantine" in names
        assert "rehabilitate" in names
        assert "fold_in" in names


class TestReplay:
    def test_identical_schedules_replay_bitwise(self):
        def one_run():
            cfg = StalenessConfig(staleness_bound=3, quorum_fraction=0.5,
                                  base_step_time_s=BASE)
            mon = StragglerMonitor(4, cfg)
            g = slow_rank_group(cfg, delay_s=7 * BASE, slow_steps=15, monitor=mon)
            rng = np.random.default_rng(5)
            out = []
            for step in range(30):
                starters = g.begin_step(step)
                draws = {r: rng.standard_normal(16) for r in range(4)}
                contribs = {r: (float(step + r), draws[r]) for r in starters}
                out.append(g.complete_step(step, contribs))
            return out, g.stats()

        ra, sa = one_run()
        rb, sb = one_run()
        for (la, ga), (lb, gb) in zip(ra, rb):
            assert la == lb
            assert np.array_equal(ga, gb)
        assert sa == sb
