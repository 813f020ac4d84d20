"""The inference server: a deterministic discrete-event serving tier.

Everything runs on a seeded virtual clock, exactly like the staging
tier: arrivals, micro-batch flushes, batch completions, crash
detections, and hedge checks are heap events ordered by ``(time,
sequence)``; every RNG draw is keyed off ``(seed, purpose, ordinal)``
via :func:`~repro.utils.rng.derive_seed`.  Two runs with the same seed,
workload, and fault plan replay the identical decision log, latency
distribution, and report — crashes included — which is what makes the
A9 benchmark's failover numbers trustworthy.

Degradation ladder (most graceful first):

1. **Cache hit** — content-hash result cache answers without compute,
   even with zero replicas alive.
2. **Micro-batched dispatch** — the normal path: batch up to
   ``max_batch`` requests or ``max_wait_s``, run on the least-loaded
   idle replica.
3. **Hedged dispatch** — a batch in flight past ``hedge_budget_s`` is
   duplicated onto an idle replica; first completion wins.
4. **Redrain + warm spare** — a crashed replica's in-flight requests
   re-enter the queue *front*; a cold spare warms up and takes the
   dead replica's slot.
5. **Load shed** — admission rejects, in O(1) at arrival, anything the
   pool cannot plausibly serve by its deadline.
6. **Drop** — only when every replica and spare is dead; counted
   loudly, never silent.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.perfmodel.node import NodeSpec, knl_node
from repro.serve.admission import AdmissionController, AdmissionDecision
from repro.serve.cache import ResultCache
from repro.serve.pool import ReplicaPool
from repro.serve.replica import WARMUP_S, Replica, ReplicaState
from repro.serve.request import InferenceRequest, Outcome
from repro.serve.workload import payload_volume
from repro.utils.rng import derive_seed, new_rng

__all__ = ["ServeConfig", "ServeReport", "InferenceServer"]

#: Latency of a result-cache hit, seconds.
CACHE_LATENCY_S = 0.0005
#: Health-check latency to notice a replica's death, seconds.
CRASH_DETECTION_S = 0.02

_SHED_OUTCOME = {
    AdmissionDecision.SHED_QUEUE_FULL: Outcome.SHED_QUEUE_FULL,
    AdmissionDecision.SHED_DEADLINE: Outcome.SHED_DEADLINE,
    AdmissionDecision.SHED_UNAVAILABLE: Outcome.SHED_UNAVAILABLE,
}


@dataclass(frozen=True)
class ServeConfig:
    """Policy knobs for the serving tier."""

    n_replicas: int = 2
    n_spares: int = 0
    max_batch: int = 4
    max_wait_s: float = 0.005  # micro-batching window
    max_queue: int = 64
    cache_capacity: int = 256  # entries; 0 disables the result cache
    hedge_budget_s: Optional[float] = None  # None disables hedging
    run_inference: bool = False  # real model predictions on completion

    def __post_init__(self):
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if self.n_spares < 0:
            raise ValueError("n_spares must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be >= 0")
        if self.hedge_budget_s is not None and self.hedge_budget_s < 0:
            raise ValueError("hedge_budget_s must be >= 0 (or None)")


@dataclass
class ServeReport:
    """Everything one serving run did, as numbers.

    ``completed + cache_hits + shed_* + dropped == n_requests`` always
    holds — no request exits the tier unaccounted.
    """

    n_requests: int = 0
    completed: int = 0
    cache_hits: int = 0
    shed_queue_full: int = 0
    shed_deadline: int = 0
    shed_unavailable: int = 0
    dropped: int = 0
    deadline_misses: int = 0
    batches: int = 0
    crashes: int = 0
    redrained: int = 0
    promotions: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    duration_s: float = 0.0
    served_qps: float = 0.0
    latency_p50_s: float = 0.0
    latency_p99_s: float = 0.0
    latency_max_s: float = 0.0
    latency_mean_s: float = 0.0

    @property
    def served(self) -> int:
        return self.completed + self.cache_hits

    @property
    def shed(self) -> int:
        return self.shed_queue_full + self.shed_deadline + self.shed_unavailable

    def as_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def describe(self) -> str:
        lines = [
            "serving tier:",
            f"  requests: {self.n_requests} "
            f"(served {self.served}, shed {self.shed}, dropped {self.dropped})",
            f"  completed: {self.completed}  cache hits: {self.cache_hits}",
            f"  shed: queue_full={self.shed_queue_full} "
            f"deadline={self.shed_deadline} unavailable={self.shed_unavailable}",
            f"  deadline misses: {self.deadline_misses}",
            f"  batches: {self.batches}  crashes: {self.crashes} "
            f"(redrained {self.redrained}, promoted {self.promotions})",
            f"  hedges: {self.hedges} (wins {self.hedge_wins})",
            f"  latency: p50={self.latency_p50_s * 1e3:.2f}ms "
            f"p99={self.latency_p99_s * 1e3:.2f}ms "
            f"max={self.latency_max_s * 1e3:.2f}ms",
            f"  duration: {self.duration_s:.3f}s ({self.served_qps:.1f} qps served)",
        ]
        return "\n".join(lines)


class _Batch:
    """One dispatched micro-batch (possibly a hedge twin)."""

    __slots__ = (
        "bid", "requests", "replica", "t_dispatch", "service_s",
        "is_hedge", "twin", "in_flight",
    )

    def __init__(self, bid, requests, replica, t_dispatch, service_s, is_hedge):
        self.bid = bid
        self.requests = requests
        self.replica = replica
        self.t_dispatch = t_dispatch
        self.service_s = service_s
        self.is_hedge = is_hedge
        self.twin: Optional["_Batch"] = None
        self.in_flight = True

    @property
    def name(self) -> str:
        return f"b{self.bid}"


class InferenceServer:
    """Deterministic replica-pool inference serving on a virtual clock.

    Parameters
    ----------
    model
        The :class:`~repro.core.model.CosmoFlowModel` being served;
        every replica shares this instance (models with the same config
        and seed are bitwise identical).
    config
        :class:`ServeConfig` policy.
    node
        :class:`~repro.perfmodel.node.NodeSpec` every replica runs on
        (default: the paper's KNL node).  Service time is forward-pass
        flops over sustained flops, jittered lognormally.
    seed
        Master seed for service-time jitter; combined with per-dispatch
        ordinals so replay is exact.
    injector
        Optional :class:`~repro.faults.FaultInjector` supplying
        ``REPLICA_CRASH`` / ``REPLICA_SLOW`` events at dispatch points.
    tracer
        Optional tracer; every decision mirrors onto the ``"serve"``
        track as an instant stamped with the virtual clock.
    metrics
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; one is
        created when omitted.  All instruments live under ``serve.``,
        and they are the one store of the tier's counts: every count in
        the :class:`ServeReport` is read from them (so a registry shared
        by two servers reports both runs' totals).
    """

    def __init__(
        self,
        model,
        config: Optional[ServeConfig] = None,
        node: Optional[NodeSpec] = None,
        seed: int = 0,
        injector=None,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.model = model
        self.config = config or ServeConfig()
        self.node = node or knl_node()
        self.seed = seed
        self.injector = injector
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = ResultCache(self.config.cache_capacity)
        #: Human-readable decision log — determinism tests compare two
        #: runs' logs verbatim, like the staging tier's.
        self.events: List[str] = []
        self.clock_s = 0.0
        self.pool = self._build_pool()
        self.admission = AdmissionController(
            max_queue=self.config.max_queue,
            max_batch=self.config.max_batch,
            batch_service_s=self.pool.replicas[0].nominal_service_s(
                self.config.max_batch
            ),
        )
        self._heap: List[Tuple[float, int, str, Any]] = []
        self._seq = 0
        self._dispatches = 0
        self._batches = 0
        self._in_flight: Dict[int, _Batch] = {}
        self._next_flush_s: Optional[float] = None
        self._latency = self.metrics.histogram("serve.latency_s")
        self._service = self.metrics.histogram("serve.service_s")

    # -- construction --------------------------------------------------------

    def _build_pool(self) -> ReplicaPool:
        n = self.config.n_replicas
        primaries = [Replica(i, self.model, self.node) for i in range(n)]
        spares = [Replica(n + i, self.model, self.node) for i in range(self.config.n_spares)]
        return ReplicaPool(primaries, spares)

    # -- event plumbing ------------------------------------------------------

    def _push(self, t: float, kind: str, payload: Any = None) -> None:
        heapq.heappush(self._heap, (t, self._seq, kind, payload))
        self._seq += 1

    def _advance_to(self, t: float) -> None:
        if t > self.clock_s:
            self.clock_s = t

    def _event(self, kind: str, detail) -> None:
        """One decision: string log plus (optionally) a trace instant
        stamped with the virtual clock."""
        self.events.append(f"{kind}:{detail}")
        if self.tracer.enabled:
            self.tracer.instant(
                kind, cat="serve", track="serve", detail=str(detail), vts=self.clock_s
            )

    def _count(self, name: str, n: int = 1) -> None:
        self.metrics.counter(f"serve.{name}").add(n)

    # -- run -----------------------------------------------------------------

    def run(self, requests: List[InferenceRequest]) -> ServeReport:
        """Serve one request stream to completion and report.

        Single-shot: the server's clock, pool, and counters carry run
        state, so build a fresh server per run (replay does the same,
        which is what makes two same-seed runs comparable verbatim).
        """
        for replica in self.pool.replicas:
            ready_at = self.clock_s + WARMUP_S
            replica.ready_at_s = ready_at
            self._event("boot", replica.name)
            self._push(ready_at, "ready", replica)
        for request in requests:
            self._push(request.arrival_s, "arrival", request)
        handlers = {
            "arrival": self._on_arrival,
            "ready": self._on_ready,
            "flush": self._on_flush,
            "done": self._on_done,
            "crash": self._on_crash,
            "hedge": self._on_hedge,
        }
        while self._heap:
            t, _, kind, payload = heapq.heappop(self._heap)
            self._advance_to(t)
            handlers[kind](payload)
        self._drain_unserved()
        return self._report(requests)

    # -- handlers ------------------------------------------------------------

    def _on_arrival(self, request: InferenceRequest) -> None:
        now = self.clock_s
        if self.cache.capacity > 0:
            result = self.cache.get(request.payload)
            if result is not None:
                request.resolve(Outcome.CACHE_HIT, now + CACHE_LATENCY_S)
                self._latency.observe(request.latency_s)
                self._count("cache_hits")
                self._event("cache_hit", request.rid)
                return
        decision = self.admission.decide(
            request,
            now,
            n_serving=self.pool.n_serving(),
            n_warming=self.pool.n_warming(),
            n_spares=self.pool.n_spares_left(),
            in_flight=len(self._in_flight),
        )
        if decision is AdmissionDecision.ADMIT:
            self.admission.push(request)
            self._count("admitted")
            self._event("admit", request.rid)
            self._pump()
        else:
            request.resolve(_SHED_OUTCOME[decision])  # no finish_s: never served
            self._count(decision.value)
            self._event(decision.value, request.rid)

    def _on_ready(self, replica: Replica) -> None:
        self.pool.mark_ready(replica)
        self._event("ready", replica.name)
        self._pump()

    def _on_flush(self, _payload) -> None:
        self._next_flush_s = None
        self._pump()

    def _on_done(self, batch: _Batch) -> None:
        now = self.clock_s
        batch.in_flight = False
        self._in_flight.pop(batch.bid, None)
        replica = batch.replica
        if replica.state is ReplicaState.BUSY:
            replica.state = ReplicaState.IDLE
        replica.batches_served += 1
        self._service.observe(batch.service_s)
        newly = [r for r in batch.requests if r.resolve(Outcome.COMPLETED, now)]
        if not newly:
            # The hedge twin beat this batch to every request.
            self._event("hedge_loss", batch.name)
            self._pump()
            return
        if batch.is_hedge:
            self._count("hedge_wins")
            self._event("hedge_win", batch.name)
        for request in newly:
            self._latency.observe(request.latency_s)
            if not request.met_deadline:
                self._count("deadline_misses")
            self._cache_result(request, replica)
        self._count("completed", len(newly))
        self._event("done", f"{batch.name}:{replica.name}:n{len(newly)}")
        self._pump()

    def _on_crash(self, batch: _Batch) -> None:
        now = self.clock_s
        batch.in_flight = False
        self._in_flight.pop(batch.bid, None)
        replica = batch.replica
        spare = self.pool.crash(replica)
        self._count("crashes")
        self._event("crash", f"{replica.name}:{batch.name}")
        unresolved = [r for r in batch.requests if not r.resolved]
        if unresolved and batch.twin is not None and batch.twin.in_flight:
            self._event("hedge_covers", batch.name)
        elif unresolved:
            n = self.admission.redrain(unresolved)
            self._count("redrained", n)
            self._event("redrain", f"n{n}")
        if spare is not None:
            ready_at = now + WARMUP_S
            spare.ready_at_s = ready_at
            self._count("promotions")
            self._event("promote", spare.name)
            self._push(ready_at, "ready", spare)
        self._pump()

    def _on_hedge(self, batch: _Batch) -> None:
        """Hedge check: the batch has been in flight ``hedge_budget_s``
        — duplicate it onto an idle replica if one exists, or check
        again a budget later (stragglers outlive busy spells)."""
        if not batch.in_flight or batch.twin is not None:
            return
        unresolved = [r for r in batch.requests if not r.resolved]
        if not unresolved:
            return
        replica = self.pool.pick()
        if replica is None:
            self._push(self.clock_s + self.config.hedge_budget_s, "hedge", batch)
            return
        twin = self._dispatch(list(batch.requests), replica, is_hedge=True)
        batch.twin = twin
        twin.twin = batch
        self._count("hedges")
        self._event("hedge", f"{batch.name}:{replica.name}")

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, requests, replica: Replica, is_hedge: bool = False) -> _Batch:
        now = self.clock_s
        d = self._dispatches
        self._dispatches += 1
        crash, slow_s = (
            self.injector.on_dispatch(replica.rid)
            if self.injector is not None
            else (False, 0.0)
        )
        rng = new_rng(derive_seed(self.seed, "serve-svc", d))
        n = sum(r.n_samples for r in requests)
        service_s = replica.service_time(n, rng) + slow_s
        batch = _Batch(self._batches, requests, replica, now, service_s, is_hedge)
        self._batches += 1
        replica.state = ReplicaState.BUSY
        self._in_flight[batch.bid] = batch
        self._count("batches")
        self._event("dispatch", f"{batch.name}:{replica.name}:n{len(requests)}")
        if slow_s > 0:
            self._event("slow", f"{batch.name}:{replica.name}")
        if crash:
            self._push(now + CRASH_DETECTION_S, "crash", batch)
        else:
            self._push(now + service_s, "done", batch)
            if self.config.hedge_budget_s is not None and not is_hedge:
                self._push(now + self.config.hedge_budget_s, "hedge", batch)
        return batch

    def _pump(self) -> None:
        """Dispatch every ready micro-batch the pool can absorb, then
        (re)arm the batching-window flush timer."""
        now = self.clock_s
        while self.admission.batch_ready(now, self.config.max_wait_s):
            replica = self.pool.pick()
            if replica is None:
                break
            self._dispatch(self.admission.take_batch(), replica)
        self._arm_flush()

    def _arm_flush(self) -> None:
        if not self.admission.queue:
            return
        t = self.admission.queue[0].arrival_s + self.config.max_wait_s
        if t <= self.clock_s:
            return  # already dispatchable; waiting on a replica, not the clock
        if self._next_flush_s is not None and self.clock_s < self._next_flush_s <= t:
            return
        self._next_flush_s = t
        self._push(t, "flush", None)

    def _cache_result(self, request: InferenceRequest, replica: Replica) -> None:
        if self.cache.capacity == 0 or request.payload in self.cache:
            return
        if self.config.run_inference:
            volume = payload_volume(
                request.payload, self.model.config.input_size, seed=self.seed
            )
            result = replica.model.predict(volume)
        else:
            result = True  # simulation mode: presence is the result
        self.cache.put(request.payload, result)

    def _drain_unserved(self) -> None:
        """End of run: anything still queued had no replica left to
        serve it — count it as dropped, loudly."""
        while self.admission.queue:
            request = self.admission.queue.popleft()
            if request.resolve(Outcome.DROPPED):
                self._count("dropped")
                self._event("drop", request.rid)

    # -- reporting -----------------------------------------------------------

    def _report(self, requests: List[InferenceRequest]) -> ServeReport:
        counts = {
            name: self.metrics.value(f"serve.{name}", 0)
            for name in (
                "completed", "cache_hits", "dropped", "deadline_misses", "batches",
                "crashes", "redrained", "promotions", "hedges", "hedge_wins",
                *(d.value for d in _SHED_OUTCOME),
            )
        }
        duration = self.clock_s
        served = counts["completed"] + counts["cache_hits"]
        return ServeReport(
            n_requests=len(requests),
            duration_s=duration,
            served_qps=served / duration if duration > 0 else 0.0,
            latency_p50_s=self._latency.p50,
            latency_p99_s=self._latency.p99,
            latency_max_s=self._latency.max if self._latency.count else 0.0,
            latency_mean_s=self._latency.mean,
            **counts,
        )
