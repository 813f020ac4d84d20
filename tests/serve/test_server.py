"""End-to-end tests for the inference server — the A9 acceptance
behaviors at test scale: throughput scaling, crash failover with zero
loss, fast shedding under overload, and bitwise replay."""

import numpy as np
import pytest

from repro.core.model import CosmoFlowModel
from repro.core.topology import tiny_16
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.obs.tracer import Tracer
from repro.perfmodel.node import NodeSpec
from repro.serve import (
    InferenceServer,
    Outcome,
    ServeConfig,
    WorkloadSpec,
    build_requests,
)


@pytest.fixture(scope="module")
def model():
    return CosmoFlowModel(tiny_16(), seed=0)


def node(jitter=0.02):
    # ~1 Gflop/s sustained -> tiny_16 forward in a few ms: fast tests
    # with realistically shaped latencies.
    return NodeSpec(name="test", sustained_flops=1e9, peak_flops=1e12, jitter_sigma=jitter)


def serve(model, config, spec, seed=0, plan=None, **kw):
    injector = FaultInjector(plan) if plan is not None else None
    server = InferenceServer(model, config, node=node(), seed=seed, injector=injector, **kw)
    report = server.run(build_requests(spec, seed=seed))
    return server, report


def crash_plan(*dispatches):
    return FaultPlan(
        events=[FaultEvent(FaultKind.REPLICA_CRASH, step=d) for d in dispatches]
    )


class TestAccounting:
    def test_every_request_accounted(self, model):
        cfg = ServeConfig(n_replicas=2, max_queue=8)
        spec = WorkloadSpec(n_requests=120, rate_qps=800.0, deadline_slack_s=0.05, n_unique=40)
        _, rep = serve(model, cfg, spec, seed=3)
        assert (
            rep.completed + rep.cache_hits + rep.shed + rep.dropped == rep.n_requests
        )

    def test_clean_run_serves_everything(self, model):
        cfg = ServeConfig(n_replicas=2)
        spec = WorkloadSpec(n_requests=60, rate_qps=150.0, deadline_slack_s=0.5, n_unique=20)
        _, rep = serve(model, cfg, spec, seed=1)
        assert rep.served == 60 and rep.shed == 0 and rep.dropped == 0
        assert rep.deadline_misses == 0
        assert rep.latency_p50_s <= rep.latency_p99_s <= rep.latency_max_s


class TestThroughputScaling:
    def test_more_replicas_more_sustained_qps(self, model):
        # Offered load sized ~3x one replica's capacity: a single
        # replica must shed, three replicas must not.
        spec = WorkloadSpec(
            n_requests=150, rate_qps=600.0, deadline_slack_s=0.06, n_unique=10_000
        )
        _, rep1 = serve(model, ServeConfig(n_replicas=1, max_queue=16), spec, seed=9)
        _, rep3 = serve(model, ServeConfig(n_replicas=3, max_queue=16), spec, seed=9)
        assert rep3.served > rep1.served
        assert rep3.shed < rep1.shed
        assert rep1.dropped == rep3.dropped == 0
        # What the 3-replica pool admits, it serves on time.
        assert rep3.deadline_misses == 0


class TestCrashFailover:
    def test_crash_loses_no_admitted_requests(self, model):
        cfg = ServeConfig(n_replicas=3, n_spares=1)
        spec = WorkloadSpec(
            n_requests=200, rate_qps=300.0, deadline_slack_s=0.4, n_unique=10_000
        )
        srv, rep = serve(model, cfg, spec, seed=7, plan=crash_plan(5))
        assert rep.crashes == 1 and rep.promotions == 1
        assert rep.redrained >= 1
        assert rep.dropped == 0
        assert rep.served + rep.shed == rep.n_requests
        assert any(e.startswith("redrain:") for e in srv.events)
        assert any(e.startswith("promote:") for e in srv.events)

    def test_redrained_requests_complete(self, model):
        cfg = ServeConfig(n_replicas=2, n_spares=1)
        spec = WorkloadSpec(n_requests=80, rate_qps=250.0, deadline_slack_s=0.6, n_unique=10_000)
        srv = InferenceServer(
            model, cfg, node=node(), seed=4, injector=FaultInjector(crash_plan(3))
        )
        requests = build_requests(spec, seed=4)
        srv.run(requests)
        redrained = [r for r in requests if r.redrains > 0]
        assert redrained, "crash should have redrained in-flight requests"
        assert all(r.outcome is Outcome.COMPLETED for r in redrained)

    def test_pool_death_without_spares_drops_loudly(self, model):
        cfg = ServeConfig(n_replicas=2, n_spares=0, cache_capacity=0)
        spec = WorkloadSpec(n_requests=40, rate_qps=500.0, deadline_slack_s=0.2, n_unique=100)
        _, rep = serve(model, cfg, spec, seed=1, plan=crash_plan(0, 1))
        assert rep.crashes == 2 and rep.promotions == 0
        assert rep.dropped > 0 or rep.shed_unavailable > 0
        assert rep.served + rep.shed + rep.dropped == rep.n_requests

    def test_cache_serves_after_total_pool_death(self, model):
        # Warm the cache, then kill both replicas: repeats of cached
        # volumes are still answered (degraded-mode floor).
        cfg = ServeConfig(n_replicas=2, n_spares=0, cache_capacity=64)
        spec = WorkloadSpec(n_requests=120, rate_qps=150.0, deadline_slack_s=0.4, n_unique=4)
        _, rep = serve(model, cfg, spec, seed=6, plan=crash_plan(2, 3))
        assert rep.crashes == 2
        assert rep.cache_hits > 0
        hits_after_death = rep.cache_hits
        assert hits_after_death + rep.completed + rep.shed + rep.dropped == rep.n_requests


class TestOverload:
    def test_overload_sheds_fast_admitted_meet_deadlines(self, model):
        # Offered ~2x what two replicas sustain, with tight deadlines.
        cfg = ServeConfig(n_replicas=2, max_queue=8)
        spec = WorkloadSpec(
            n_requests=300, rate_qps=1200.0, deadline_slack_s=0.03, n_unique=10_000
        )
        srv = InferenceServer(model, cfg, node=node(), seed=11)
        requests = build_requests(spec, seed=11)
        rep = srv.run(requests)
        assert rep.shed > 0
        assert rep.dropped == 0
        # Shed requests are rejected at arrival: no queue time burned.
        shed = [r for r in requests if r.outcome in (
            Outcome.SHED_DEADLINE, Outcome.SHED_QUEUE_FULL, Outcome.SHED_UNAVAILABLE
        )]
        assert all(r.finish_s is None for r in shed)
        # Nearly everything admitted meets its deadline (the estimate
        # is nominal, so jitter can cost a straggler or two).
        assert rep.deadline_misses <= max(2, rep.completed // 20)


class TestHedging:
    def test_straggler_hedge_wins(self, model):
        plan = FaultPlan(
            events=[FaultEvent(FaultKind.REPLICA_SLOW, step=0, delay_s=0.5)]
        )
        cfg = ServeConfig(n_replicas=2, max_batch=2, hedge_budget_s=0.05)
        spec = WorkloadSpec(n_requests=20, rate_qps=100.0, deadline_slack_s=1.0, n_unique=1000)
        srv, rep = serve(model, cfg, spec, seed=2, plan=plan)
        assert rep.hedges >= 1 and rep.hedge_wins >= 1
        assert rep.dropped == 0 and rep.deadline_misses == 0
        assert any(e.startswith("hedge:") for e in srv.events)
        assert any(e.startswith("hedge_loss:") for e in srv.events)

    def test_no_hedge_without_budget(self, model):
        plan = FaultPlan(
            events=[FaultEvent(FaultKind.REPLICA_SLOW, step=0, delay_s=0.3)]
        )
        cfg = ServeConfig(n_replicas=2, hedge_budget_s=None)
        spec = WorkloadSpec(n_requests=20, rate_qps=100.0, deadline_slack_s=1.0, n_unique=1000)
        _, rep = serve(model, cfg, spec, seed=2, plan=plan)
        assert rep.hedges == 0


class TestDeterminism:
    CFG = dict(n_replicas=3, n_spares=1, hedge_budget_s=0.08)
    SPEC = WorkloadSpec(
        n_requests=150, rate_qps=400.0, deadline_slack_s=0.3, n_unique=64
    )

    def run_once(self, model, seed):
        plan = FaultPlan(events=[
            FaultEvent(FaultKind.REPLICA_CRASH, step=4),
            FaultEvent(FaultKind.REPLICA_SLOW, step=9, delay_s=0.2),
        ])
        return serve(model, ServeConfig(**self.CFG), self.SPEC, seed=seed, plan=plan)

    def test_same_seed_replays_bitwise(self, model):
        srv_a, rep_a = self.run_once(model, seed=13)
        srv_b, rep_b = self.run_once(model, seed=13)
        assert srv_a.events == srv_b.events
        assert rep_a.as_dict() == rep_b.as_dict()

    def test_different_seed_diverges(self, model):
        srv_a, _ = self.run_once(model, seed=13)
        srv_b, _ = self.run_once(model, seed=14)
        assert srv_a.events != srv_b.events


class TestObservability:
    def test_decisions_mirror_to_tracer_and_metrics(self, model, tmp_path):
        from repro.obs.summarize import load_trace, summarize_trace

        tracer = Tracer()
        cfg = ServeConfig(n_replicas=2, n_spares=1)
        spec = WorkloadSpec(n_requests=60, rate_qps=200.0, deadline_slack_s=0.4, n_unique=16)
        srv = InferenceServer(
            model, cfg, node=node(), seed=5,
            injector=FaultInjector(crash_plan(2)), tracer=tracer,
        )
        rep = srv.run(build_requests(spec, seed=5))
        # Every decision-log entry has a matching instant on "serve".
        summary = summarize_trace(load_trace(tracer.export(tmp_path / "t.json")))
        per = summary.per_track_instants["serve"]
        assert per.get("admit", 0) == srv.metrics.value("serve.admitted")
        assert per.get("crash", 0) == rep.crashes == 1
        assert len(srv.events) == sum(per.values())
        assert srv.metrics.value("serve.completed") == rep.completed
        assert srv.metrics.histogram("serve.latency_s").count == rep.served

    def test_real_inference_results_cached(self, model):
        from repro.serve.workload import payload_volume

        cfg = ServeConfig(n_replicas=1, run_inference=True, cache_capacity=8)
        spec = WorkloadSpec(n_requests=12, rate_qps=100.0, deadline_slack_s=1.0, n_unique=2)
        srv, rep = serve(model, cfg, spec, seed=8)
        assert rep.cache_hits > 0
        cached = srv.cache.get("vol-0000")
        if cached is not None:
            expected = model.predict(payload_volume("vol-0000", 16, seed=8))
            np.testing.assert_allclose(cached, expected)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(n_replicas=0)
        with pytest.raises(ValueError):
            ServeConfig(hedge_budget_s=-1.0)
