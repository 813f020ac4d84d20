"""Unit tests of the harness math (no ``repro`` import, no subprocess).

Run with ``python -m pytest bench/tests -q``; tier-1's ``testpaths`` does not
include this directory.
"""

import json
import re
import threading
from pathlib import Path

import pytest

from bench.frozen import OPS_AT_REF, SECONDS_REF, TICK_REF_MS, TICK_SHARE
from bench.measure import WARMUP_OPS, OpClock, corrected_stats, percentile
from bench.spans import NullRecorder, SpanRecorder, inclusive_times, self_times, uncovered_share
from bench.tick import Ticker
from bench.worker import setup_seconds

ROOT = Path(__file__).resolve().parents[2]


def _series(n_ops, slow_from=None, factor=1.4):
    """Operation and tick times as the top-up rule would interleave them,
    with the host ``factor`` times slower from operation ``slow_from`` on."""
    ops, ticks, tick_total, busy = [], [], 0.0, 0.0
    for i in range(n_ops):
        slow = factor if slow_from is not None and i >= slow_from else 1.0
        op = (0.020 + 0.0004 * ((i * 7) % 5)) * slow
        ops.append(op)
        busy += op
        while tick_total < TICK_SHARE * busy:
            tick = (0.003 + 0.00002 * ((len(ticks) * 3) % 7)) * slow
            ticks.append(tick)
            tick_total += tick
    return ops, ticks


def test_speed_correction_cancels_a_host_slowdown():
    ops, ticks = _series(400)
    slow_ops, slow_ticks = _series(400, slow_from=200)
    steady = corrected_stats(ops, ops, ticks)
    slowed = corrected_stats(slow_ops, slow_ops, slow_ticks)
    # Uncorrected, half the run at x1.4 moves throughput by ~17 %.
    assert slowed["raw.ops_per_s"] < 0.87 * steady["raw.ops_per_s"]
    for name in ("ops_per_s", "op_ms_p50", "cpu_ms_per_op"):
        assert slowed[name] == pytest.approx(steady[name], rel=0.02), name


def test_correction_is_identity_at_reference_speed():
    stats = corrected_stats([0.01] * 10, [0.01] * 10, [TICK_REF_MS / 1e3] * 4)
    assert stats["ops_per_s"] == pytest.approx(100.0)
    assert stats["op_ms_p50"] == pytest.approx(10.0)
    assert stats["cpu_ms_per_op"] == pytest.approx(10.0)
    assert stats["host.speed_factor"] == pytest.approx(1.0)
    # Twice as slow a host: throughput doubles back, times halve back.
    slow = corrected_stats([0.02] * 10, [0.02] * 10, [2 * TICK_REF_MS / 1e3] * 4)
    assert slow["ops_per_s"] == pytest.approx(100.0)
    assert slow["op_ms_p50"] == pytest.approx(10.0)
    assert slow["host.speed_factor"] == pytest.approx(0.5)


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4, 5], 50) == 3
    assert percentile([0, 10], 95) == pytest.approx(9.5)


def test_span_self_time_arithmetic():
    rec = SpanRecorder()
    rec.spans = [
        ["step", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["b.inner", 6.0, 8.0, 2, 0],
        ["step", 20.0, 24.0, -1, -1],  # warm-up operation: left out
        ["a", 21.0, 22.0, 4, -1],
    ]
    assert self_times(rec.spans) == {"step": 3.0, "a": 3.0, "b": 2.0, "b.inner": 2.0}
    assert inclusive_times(rec.spans) == {"step": 10.0, "a": 3.0, "b": 4.0, "b.inner": 2.0}
    assert uncovered_share(rec.spans) == pytest.approx(0.3)
    assert self_times(rec.spans, min_op=-1)["step"] == pytest.approx(6.0)


def test_recorder_nests_and_numbers_spans():
    rec = SpanRecorder()
    rec.op = 3
    with rec.span("step"):
        with rec.span("child"):
            pass
        with rec.span("child"):
            with rec.span("leaf"):
                pass
    names_parents = [(s[0], s[3], s[4]) for s in rec.spans]
    assert names_parents == [("step", -1, 3), ("child", 0, 3), ("child", 0, 3), ("leaf", 2, 3)]
    assert all(s[2] >= s[1] > 0 for s in rec.spans)
    own = self_times(rec.spans)
    assert sum(own.values()) == pytest.approx(rec.spans[0][2] - rec.spans[0][1])
    with NullRecorder().span("anything"):
        pass


def test_tick_refuses_to_run_beside_a_second_thread():
    ticker = Ticker()
    assert ticker.tick() > 0
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        with pytest.raises(RuntimeError, match="threads alive"):
            ticker.tick()
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive()
    assert len(ticker.ticks_s) == 1


def test_op_clock_discards_warm_up_and_keeps_tick_share():
    ticker = Ticker()
    ticker.burst(2)
    clock = OpClock(ticker)
    for _ in range(WARMUP_OPS + 3):
        sum(range(20_000))
        clock.lap()
    assert len(clock.op_wall_s) == len(clock.op_cpu_s) == 3
    assert len(clock.setup_ticks_s) == 2
    assert clock.window_ticks_s
    assert sum(clock.window_ticks_s) >= TICK_SHARE * sum(clock.op_wall_s)
    assert clock.window_open_monotonic > 0


def test_setup_seconds_excludes_ticks_and_corrects_speed():
    ticks = [2 * TICK_REF_MS / 1e3] * 20  # host at half speed
    assert setup_seconds(100.0, 110.0, ticks) == pytest.approx((10.0 - sum(ticks)) / 2)


def test_contract_names_units_and_frozen_counts():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = contract["end_to_end"] + contract["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert 1 <= len(contract["per_layer"]) <= 128
    assert [w["name"] for w in contract["workloads"]] == list(OPS_AT_REF)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
    assert contract["run_seconds"] == SECONDS_REF
    assert min(OPS_AT_REF.values()) >= 150
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert all(b <= 0.10 for name, b in bounds.items() if name != "setup_s")
    assert contract["paths"] == ["bench"]
