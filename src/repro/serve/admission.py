"""Admission control: bounded queueing and deadline-feasibility shedding.

The serving tier's overload posture is *fail fast*: a request that
cannot plausibly meet its deadline is rejected at the door in O(1),
spending no queue slot and no replica time, so the requests that ARE
admitted keep meeting their deadlines at 2x offered overload.  The
feasibility estimate is deliberately jitter-free — it uses nominal
batch service time and consumes no RNG draws, keeping shedding
decisions a pure function of observable queue state.

The controller also owns the micro-batching queue itself: FIFO for
arrivals, front-of-queue re-insertion for requests redrained off a
crashed replica (they already waited; making them wait again would
double-charge the crash against their deadline).
"""

from __future__ import annotations

import math
from collections import deque
from enum import Enum
from typing import Deque, Iterable, List

from repro.serve.replica import WARMUP_S
from repro.serve.request import InferenceRequest

__all__ = ["AdmissionDecision", "AdmissionController"]


class AdmissionDecision(Enum):
    ADMIT = "admit"
    SHED_QUEUE_FULL = "shed_queue_full"
    SHED_DEADLINE = "shed_deadline"
    SHED_UNAVAILABLE = "shed_unavailable"


class AdmissionController:
    """Bounded queue plus the shed-or-admit policy.

    ``batch_service_s`` is the nominal (jitter-free) service time of a
    full batch — the unit the wait estimate is denominated in.
    """

    def __init__(self, max_queue: int, max_batch: int, batch_service_s: float):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if batch_service_s <= 0:
            raise ValueError("batch_service_s must be > 0")
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.batch_service_s = batch_service_s
        self.queue: Deque[InferenceRequest] = deque()
        self.admitted = 0
        self.shed = {d: 0 for d in AdmissionDecision if d is not AdmissionDecision.ADMIT}

    def __len__(self) -> int:
        return len(self.queue)

    # -- policy --------------------------------------------------------------

    def estimate_done_s(
        self, now: float, n_serving: int, n_warming: int, in_flight: int
    ) -> float:
        """Nominal completion time were one more request admitted now.

        Work ahead of it: every in-flight batch plus the queue (itself
        included) packed into ``max_batch`` batches, spread over the
        replicas that can serve.  When nothing is serving yet the first
        wave also waits out a replica warmup (:data:`WARMUP_S`).
        """
        lanes = max(1, n_serving if n_serving > 0 else n_warming)
        batches_ahead = in_flight + math.ceil((len(self.queue) + 1) / self.max_batch)
        waves = math.ceil(batches_ahead / lanes)
        est = now + waves * self.batch_service_s
        if n_serving == 0:
            est += WARMUP_S
        return est

    def decide(
        self,
        request: InferenceRequest,
        now: float,
        n_serving: int,
        n_warming: int,
        n_spares: int,
        in_flight: int,
    ) -> AdmissionDecision:
        """Shed-or-admit for one arriving request (cache misses only —
        the server resolves cache hits before consulting admission)."""
        if n_serving == 0 and n_warming == 0 and n_spares == 0:
            return AdmissionDecision.SHED_UNAVAILABLE
        if len(self.queue) >= self.max_queue:
            return AdmissionDecision.SHED_QUEUE_FULL
        est = self.estimate_done_s(now, n_serving, n_warming, in_flight)
        if est > request.deadline_s:
            return AdmissionDecision.SHED_DEADLINE
        return AdmissionDecision.ADMIT

    # -- queue ---------------------------------------------------------------

    def push(self, request: InferenceRequest) -> None:
        self.queue.append(request)
        self.admitted += 1

    def redrain(self, requests: Iterable[InferenceRequest]) -> int:
        """Re-insert in-flight requests from a dead replica at the
        *front* of the queue, preserving their relative order."""
        drained = list(requests)
        for request in reversed(drained):
            request.redrains += 1
            self.queue.appendleft(request)
        return len(drained)

    def oldest_wait_s(self, now: float) -> float:
        if not self.queue:
            return 0.0
        return now - self.queue[0].arrival_s

    def batch_ready(self, now: float, max_wait_s: float) -> bool:
        """Micro-batcher trigger: a full batch is waiting, or the head
        request has aged past the batching window."""
        if not self.queue:
            return False
        return (
            len(self.queue) >= self.max_batch
            or self.oldest_wait_s(now) >= max_wait_s
        )

    def take_batch(self) -> List[InferenceRequest]:
        """Pop up to ``max_batch`` requests, FIFO."""
        batch: List[InferenceRequest] = []
        while self.queue and len(batch) < self.max_batch:
            batch.append(self.queue.popleft())
        return batch

    def record_shed(self, decision: AdmissionDecision) -> None:
        self.shed[decision] += 1
