"""Tests for the measurement layer: percentiles, series, windows."""

import pytest

from repro.stats import (
    LatencyRecorder,
    SlidingWindowRate,
    format_table,
    pct,
    percentile,
    summarize,
)


def test_percentile_basic():
    samples = sorted([1.0, 2.0, 3.0, 4.0, 5.0])
    assert percentile(samples, 0.0) == 1.0
    assert percentile(samples, 1.0) == 5.0
    assert percentile(samples, 0.5) == 3.0


def test_percentile_interpolates():
    samples = [1.0, 2.0]
    assert percentile(samples, 0.5) == pytest.approx(1.5)


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_summarize_fields():
    summary = summarize([1.0, 2.0, 3.0, 4.0])
    assert summary.count == 4
    assert summary.mean == pytest.approx(2.5)
    assert summary.minimum == 1.0
    assert summary.maximum == 4.0
    assert summary.p99 >= summary.p95 >= summary.p50
    assert summary.as_dict()["count"] == 4


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_recorder_groups_and_overall():
    recorder = LatencyRecorder()
    recorder.record(1.0, 0.010, group="a")
    recorder.record(2.0, 0.020, group="b")
    recorder.record(3.0, 0.030, group="a")
    assert recorder.count("a") == 2
    assert recorder.count("b") == 1
    assert sorted(recorder.groups()) == ["a", "b"]
    assert len(recorder.all_latencies()) == 3


def test_recorder_negative_latency_rejected():
    recorder = LatencyRecorder()
    with pytest.raises(ValueError):
        recorder.record(1.0, -0.1)


def test_recorder_throughput_series():
    recorder = LatencyRecorder()
    for t in (0.1, 0.2, 1.5, 2.9):
        recorder.record(t, 0.001)
    series = recorder.throughput_series(bucket=1.0, until=3.0)
    rates = dict(series)
    assert rates[0.0] == pytest.approx(2.0)
    assert rates[1.0] == pytest.approx(1.0)
    assert rates[2.0] == pytest.approx(1.0)


def test_recorder_latency_series_means():
    recorder = LatencyRecorder()
    recorder.record(0.5, 0.010)
    recorder.record(0.6, 0.030)
    recorder.record(1.5, 0.050)
    series = dict(recorder.latency_series(bucket=1.0))
    assert series[0.0] == pytest.approx(0.020)
    assert series[1.0] == pytest.approx(0.050)


def test_sliding_window_rate():
    window = SlidingWindowRate(window=10.0)
    for t in range(5):
        window.observe(float(t))
    assert window.rate(5.0) == pytest.approx(0.5)
    # Old events age out.
    assert window.rate(100.0) == 0.0


def test_sliding_window_validation():
    with pytest.raises(ValueError):
        SlidingWindowRate(window=0)


def test_sliding_window_boundary_event_included():
    """An event at exactly now - window is inside the closed-left window."""
    window = SlidingWindowRate(window=10.0)
    window.observe(0.0)
    assert window.rate(10.0) == pytest.approx(0.1)
    # One tick past the boundary it ages out.
    window.observe(0.0)  # re-add: the prior rate() call kept it, but be explicit
    assert window.rate(10.0 + 1e-9) == 0.0


def test_sliding_window_rate_idempotent_at_same_now():
    """Back-to-back rate() calls at the same now agree, even when events sit
    exactly on the window boundary (eviction must not drop countable events)."""
    window = SlidingWindowRate(window=5.0)
    for t in (0.0, 2.0, 4.0):
        window.observe(t)
    first = window.rate(5.0)  # 0.0 is exactly on the boundary
    second = window.rate(5.0)
    assert first == second == pytest.approx(3 / 5.0)


def test_sliding_window_eviction_keeps_boundary_event():
    window = SlidingWindowRate(window=10.0)
    window.observe(0.0)
    window.observe(3.0)
    window.rate(10.0)  # prunes: must keep both (0.0 is on the boundary)
    assert window.rate(10.0) == pytest.approx(0.2)


def test_format_table_alignment():
    text = format_table(["name", "value"], [["a", 1.5], ["long-name", 22222.0]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "name" in lines[0]
    assert "22,222" in lines[3]


def test_unit_helpers():
    assert pct(0.25) == 25.0
