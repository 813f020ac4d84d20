"""Tests for the metrics registry and its stats-dict absorber."""

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_accumulates(self):
        m = MetricsRegistry()
        c = m.counter("steps")
        c.add()
        c.add(4)
        assert c.value == 5
        assert m.counter("steps") is c  # same instrument on re-ask

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            MetricsRegistry().counter("x").add(-1)

    def test_gauge_set_and_add(self):
        g = MetricsRegistry().gauge("depth")
        g.set(3.0)
        g.add(-1.5)
        assert g.value == 1.5

    def test_histogram_summary(self):
        h = MetricsRegistry().histogram("lat")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3 and s["min"] == 1.0 and s["max"] == 3.0
        assert h.mean == pytest.approx(2.0)

    def test_empty_histogram_summary_is_zeroed(self):
        s = MetricsRegistry().histogram("lat").summary()
        assert s == {
            "count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p99": 0.0,
        }

    def test_kind_conflict_raises(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(TypeError, match="Counter"):
            m.gauge("x")


class TestHistogramQuantiles:
    """p50/p99 extraction — the numbers the A9 serving report prints.

    Wrong quantiles would silently misreport tail latency, so the edge
    cases (empty, single sample, heavy tails) are pinned exactly.
    """

    def test_empty_stream_reports_zero(self):
        h = MetricsRegistry().histogram("lat")
        assert h.quantile(0.5) == 0.0
        assert h.p50 == 0.0 and h.p99 == 0.0

    def test_single_sample_is_every_quantile(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(0.042)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(0.042)

    def test_two_samples_interpolate(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(1.0)
        h.observe(2.0)
        assert h.p50 == pytest.approx(1.5)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 2.0

    def test_matches_numpy_linear_interpolation(self):
        import numpy as np

        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, 1.0, size=101)
        h = MetricsRegistry().histogram("lat")
        for v in values:
            h.observe(v)
        for q in (0.01, 0.25, 0.5, 0.9, 0.99):
            assert h.quantile(q) == pytest.approx(float(np.quantile(values, q)))

    def test_heavy_tailed_stream(self):
        # 99 fast requests and one catastrophic straggler: p50 must not
        # see the tail, p99 must.
        h = MetricsRegistry().histogram("lat")
        for _ in range(99):
            h.observe(0.010)
        h.observe(60.0)
        assert h.p50 == pytest.approx(0.010)
        assert h.p99 > 0.5  # interpolates into the straggler
        assert h.max == 60.0
        import numpy as np

        samples = [0.010] * 99 + [60.0]
        assert h.p99 == pytest.approx(float(np.quantile(samples, 0.99)))

    def test_insertion_order_irrelevant(self):
        a = MetricsRegistry().histogram("a")
        b = MetricsRegistry().histogram("b")
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        for v in values:
            a.observe(v)
        for v in sorted(values):
            b.observe(v)
        for q in (0.1, 0.5, 0.99):
            assert a.quantile(q) == b.quantile(q)

    def test_summary_includes_quantiles(self):
        h = MetricsRegistry().histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        s = h.summary()
        assert s["p50"] == pytest.approx(2.5)
        assert s["p99"] == pytest.approx(3.97)

    def test_out_of_range_quantile_rejected(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(1.0)
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(1.5)
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(-0.1)

    def test_thread_safety_of_concurrent_observes(self):
        import threading

        h = MetricsRegistry().histogram("lat")

        def worker(base):
            for i in range(200):
                h.observe(base + i * 1e-6)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 800
        assert h.quantile(1.0) == h.max


class TestRegistryReads:
    def test_value_and_default(self):
        m = MetricsRegistry()
        m.counter("a").add(2)
        m.histogram("h").observe(4.0)
        assert m.value("a") == 2
        assert m.value("h") == 4.0  # histograms read as their mean
        assert m.value("missing", default=-1) == -1

    def test_names_and_snapshot_sorted(self):
        m = MetricsRegistry()
        m.gauge("b").set(1)
        m.counter("a").add(1)
        assert m.names() == ["a", "b"]
        assert list(m.snapshot()) == ["a", "b"]

    def test_report_renders_every_instrument(self):
        m = MetricsRegistry()
        m.counter("engine.steps").add(7)
        m.histogram("engine.epoch_time_s").observe(0.5)
        text = m.report()
        assert "engine.steps = 7" in text
        assert "n=1" in text
