"""End-to-end tracing through the engine: validity, agreement, cost.

The ISSUE acceptance criteria pinned here:

* a seeded elastic run with a tracer produces a valid Chrome trace with
  per-rank tracks and io/compute/comm/optimizer spans;
* ``trace summarize`` totals agree with the run's registry stage
  accounting (same numbers, by construction — one timing window feeds
  both sinks);
* with tracing disabled (the default NULL_TRACER) runs record nothing
  and numerics are bit-identical to traced runs.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.elastic import ElasticConfig
from repro.core.engine import EngineConfig, ThreadedBackend, TrainingEngine
from repro.core.optimizer import OptimizerConfig
from repro.core.topology import tiny_16
from repro.core.trainer import InMemoryData
from repro.faults import FaultInjector
from repro.obs import (
    MetricsRegistry,
    Tracer,
    format_summary,
    load_trace,
    summarize_trace,
)

OPT = OptimizerConfig(eta0=5e-3, decay_steps=50)
STAGES = ("io", "compute", "comm", "optimizer")


def make_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, 16, 16, 16)).astype(np.float32)
    y = rng.uniform(0.2, 0.8, size=(n, 3)).astype(np.float32)
    return InMemoryData(x, y)


def run_elastic(tracer=None, metrics=None, epochs=2, seed=0):
    backend = ThreadedBackend(
        tiny_16(),
        make_dataset(9),
        val_data=make_dataset(6, seed=7),
        optimizer_config=OPT,
        n_ranks=3,
        elastic=ElasticConfig(timeout_s=10.0),
        injector=FaultInjector(),
    )
    engine = TrainingEngine(
        backend,
        config=EngineConfig(epochs=epochs, seed=seed),
        tracer=tracer,
        metrics=metrics,
    )
    hist = engine.run()
    return engine, hist


class TestTracedElasticRun:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        tracer, metrics = Tracer(), MetricsRegistry()
        engine, hist = run_elastic(tracer, metrics)
        path = tracer.export(tmp_path_factory.mktemp("trace") / "out.json")
        return tracer, metrics, hist, path

    def test_per_rank_tracks_and_stage_spans(self, traced):
        tracer, _, _, _ = traced
        events = tracer.ordered()
        tracks = {e.track for e in events}
        assert {0, 1, 2} <= tracks
        for rank in range(3):
            names = {e.name for e in events if e.track == rank and e.ph == "X"}
            assert set(STAGES) <= names, f"rank {rank} missing stage spans"
        comm = {e.name for e in events if e.cat == "comm" and e.ph == "X"}
        assert "allreduce" in comm

    def test_exported_trace_is_valid_chrome_json(self, traced):
        _, _, _, path = traced
        events = load_trace(path)
        meta = {
            e["args"]["name"] for e in events if e.get("ph") == "M"
        }
        assert {"rank 0", "rank 1", "rank 2"} <= meta
        spans = [e for e in events if e.get("ph") == "X"]
        assert spans and all(
            isinstance(e["ts"], float) and "dur" in e for e in spans
        )

    def test_summarize_agrees_with_stage_accounting(self, traced):
        # One perf_counter window feeds both the metrics registry and
        # the trace span, so the summarize totals must match up to the
        # µs JSON round-trip.
        _, metrics, _, path = traced
        summary = summarize_trace(load_trace(path))
        for stage in STAGES:
            want = metrics.value(f"engine.stage.{stage}.seconds")
            assert summary.stage_total_s(stage) == pytest.approx(want, rel=1e-6)
            assert summary.stages[stage].count == metrics.value(
                f"engine.stage.{stage}.count"
            )

    def test_format_summary_prints_stage_table(self, traced):
        _, _, _, path = traced
        text = format_summary(summarize_trace(load_trace(path)))
        for stage in STAGES:
            assert stage in text
        assert "track: rank 0" in text


class TestDisabledTracing:
    def test_null_tracer_records_nothing(self):
        engine, _ = run_elastic()  # default NULL_TRACER
        assert engine.tracer.enabled is False
        assert engine.tracer.events == []

    def test_tracing_does_not_perturb_numerics(self):
        _, ref = run_elastic()
        _, traced = run_elastic(Tracer(), MetricsRegistry())
        assert traced.train_loss == ref.train_loss  # bitwise
        assert traced.val_loss == ref.val_loss

    def test_disabled_call_site_overhead_is_negligible(self):
        # The call-site pattern is `if tracer.enabled:` plus, for spans, a
        # pre-dispatched no-op context manager.  What keeps that cheap is
        # structure, checked here without a clock: the flag is a plain
        # False, and every span is one shared object that records nothing.
        # (The per-call cost is the bench's `obs.null_tracer.span_ns`.)
        from repro.obs.tracer import NULL_TRACER

        assert NULL_TRACER.enabled is False
        first = NULL_TRACER.span("a", cat="x", track=1, k=2)
        assert NULL_TRACER.span("b") is first
        assert type(first).__slots__ == ()
        with first as entered:
            assert entered is first
        NULL_TRACER.instant("c")
        NULL_TRACER.complete("d", 0.0, 1.0)
        assert NULL_TRACER.events == []


class TestTracingOverhead:
    #: What each rank records in a one-epoch run (3 train steps and the
    #: validation pass), by (category, name).
    SPANS_PER_RANK = {
        ("engine", "io"): 6,
        ("engine", "compute"): 5,
        ("engine", "comm"): 4,
        ("engine", "optimizer"): 3,
        ("engine", "other"): 1,
        ("comm", "allreduce"): 9,  # 2 a step, 1 validation, 2 divergence
        ("comm", "bcast"): 1,  # the preamble's flat parameters
    }
    INSTANTS_PER_RANK = 4  # run-start, epoch-start, validation, epoch-end

    def test_enabled_cost_is_a_fixed_span_count(self):
        # The cost of tracing is (events recorded) x (cost of recording
        # one), and NULL_TRACER records none.  The second factor is a
        # measurement and lives in the benchmark (``obs.tracer.span_us``,
        # beside ``trace.overhead_ratio``); the first is exact, so it is
        # what is asserted: 33 events per rank over 3 steps, 11 a step.
        tracer = Tracer()
        run_elastic(tracer, epochs=1)
        events = tracer.ordered()
        for rank in range(3):
            mine = [e for e in events if e.track == rank]
            spans = Counter((e.cat, e.name) for e in mine if e.ph == "X")
            assert spans == self.SPANS_PER_RANK, f"rank {rank}"
            assert len(mine) - sum(spans.values()) == self.INSTANTS_PER_RANK
        per_rank = sum(self.SPANS_PER_RANK.values()) + self.INSTANTS_PER_RANK
        assert len(events) == 3 * per_rank + 1  # + the driver's run-end
