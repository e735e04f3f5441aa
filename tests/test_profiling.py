"""Unit tests for the simulated profiler and report rendering."""

import pytest

from repro.profiling.profiler import Profiler
from repro.profiling.report import ProfileReport, top_functions
from repro.sim.engine import Engine


@pytest.fixture
def profiler(engine):
    return Profiler(engine)


def test_record_accumulates(profiler):
    profiler.record("parse", 10.0, "w0")
    profiler.record("parse", 5.0, "w1")
    profiler.record("send", 2.0, "w0")
    assert profiler.by_label["parse"] == 15.0
    assert profiler.total_us == 17.0


def test_share(profiler):
    profiler.record("a", 30.0)
    profiler.record("b", 70.0)
    assert profiler.share("a") == pytest.approx(0.3)
    assert profiler.share("missing") == 0.0


def test_zero_and_negative_ignored(profiler):
    profiler.record("a", 0.0)
    profiler.record("a", -5.0)
    assert profiler.total_us == 0.0


def test_snapshot_delta(profiler):
    profiler.record("a", 10.0)
    profiler.record("idle", 4.0)
    snap = profiler.snapshot()
    profiler.record("a", 7.0)
    profiler.record("b", 3.0)
    delta = profiler.delta(snap)
    assert delta == {"a": 7.0, "b": 3.0}  # "idle" did not grow


def test_top_functions_ordering():
    samples = {"big": 50.0, "mid": 30.0, "small": 20.0}
    rows = top_functions(samples, n=2)
    assert [label for label, __, __ in rows] == ["big", "mid"]
    assert rows[0][2] == pytest.approx(0.5)


def test_top_functions_kernel_only():
    samples = {"parse": 80.0, "kernel.sched_yield": 15.0,
               "lock.t.spin": 5.0}
    rows = top_functions(samples, kernel_only=True)
    labels = [label for label, __, __ in rows]
    assert "parse" not in labels
    assert "kernel.sched_yield" in labels
    assert "lock.t.spin" in labels


def test_report_renders(profiler):
    profiler.record("parse_msg", 1000.0)
    profiler.record("udp_send", 500.0)
    text = ProfileReport(profiler.snapshot(), "test").render(5)
    assert "parse_msg" in text
    assert "66.7%" in text


def test_report_width_covers_header_with_short_labels(profiler):
    # Labels shorter than the "function" header must not skew columns.
    profiler.record("a", 10.0)
    header, *rows = ProfileReport(profiler.snapshot(), "t").render().split(
        "\n")[1:]
    assert header.index("cpu (ms)") > len("function")
    column = header.index("cpu (ms)") + len("cpu (ms)")
    for row in rows:
        assert len(row.split()[0]) <= header.index("cpu (ms)")
        assert row[:column].endswith(f"{10.0 / 1000.0:.2f}")
