"""Tests for repro.utils.timer and repro.utils.logging."""

import time

import pytest

from repro.utils.logging import get_logger
from repro.utils.timer import Timer, format_duration


class TestFormatDuration:
    @pytest.mark.parametrize(
        "seconds,expect",
        [
            (5e-10, "ns"),
            (5e-7, "ns"),
            (5e-5, "us"),
            (5e-3, "ms"),
            (0.5, "ms"),
            (5.0, "s"),
            (600.0, "min"),
        ],
    )
    def test_units(self, seconds, expect):
        assert expect in format_duration(seconds)

    def test_negative(self):
        assert format_duration(-2.0).startswith("-")

    @pytest.mark.parametrize(
        "seconds,expect",
        [
            # Unit boundaries are half-open: exactly at the threshold
            # rolls over to the larger unit.
            (1e-6, "1.0 us"),
            (1e-3, "1.00 ms"),
            (1.0, "1.00 s"),
            (119.999, "120.00 s"),
            (120.0, "2.0 min"),
            (7200.0, "120.0 min"),
        ],
    )
    def test_unit_boundaries(self, seconds, expect):
        assert format_duration(seconds) == expect

    def test_zero_renders_as_ns(self):
        assert format_duration(0.0) == "0.0 ns"

    def test_sub_nanosecond(self):
        assert format_duration(5e-10) == "0.5 ns"

    def test_negative_recurses_through_units(self):
        # The sign prefix composes with every unit branch.
        assert format_duration(-5e-10) == "-0.5 ns"
        assert format_duration(-150.0) == "-2.5 min"


class TestTimer:
    def test_measures_elapsed(self):
        t = Timer()
        with t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009

    def test_accumulates(self):
        t = Timer()
        for _ in range(2):
            t.start()
            time.sleep(0.005)
            t.stop()
        assert t.elapsed >= 0.009

    def test_stop_before_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.elapsed == 0.0


class TestLogging:
    def test_namespaced(self):
        lg = get_logger("comm")
        assert lg.name == "repro.comm"

    def test_already_namespaced(self):
        lg = get_logger("repro.io")
        assert lg.name == "repro.io"
