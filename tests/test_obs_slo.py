"""SLO burn-rate monitor tests: quantiles, paired windows, board feeding."""

import math

import pytest

from repro.obs.metrics import HistogramMetric
from repro.obs.slo import (
    DEFAULT_WINDOWS,
    BurnRateMonitor,
    SloBoard,
    SloTarget,
    histogram_quantile,
)
from repro.stats import LatencyRecorder


# -- histogram quantiles ------------------------------------------------------

def test_histogram_quantile_empty_is_nan():
    hist = HistogramMetric("h", bounds=(1.0, 2.0))
    assert math.isnan(histogram_quantile(hist, 0.5))


def test_histogram_quantile_rejects_bad_quantile():
    hist = HistogramMetric("h", bounds=(1.0,))
    with pytest.raises(ValueError):
        histogram_quantile(hist, 1.5)


def test_histogram_quantile_linear_interpolation():
    hist = HistogramMetric("h", bounds=(1.0, 2.0, 4.0))
    for value in (0.5,) * 10 + (1.5,) * 10:
        hist.observe(value)
    # 20 samples: rank of p50 = 10, exactly fills the first bucket.
    assert histogram_quantile(hist, 0.5) == pytest.approx(1.0)
    # p75 -> rank 15, halfway through the (1, 2] bucket.
    assert histogram_quantile(hist, 0.75) == pytest.approx(1.5)


def test_histogram_quantile_overflow_reports_highest_bound():
    hist = HistogramMetric("h", bounds=(1.0, 2.0))
    hist.observe(50.0)  # lands in the +Inf bucket
    assert histogram_quantile(hist, 0.99) == 2.0


# -- targets ------------------------------------------------------------------

def test_target_validation():
    with pytest.raises(ValueError):
        SloTarget("bad", objective=1.0)
    with pytest.raises(ValueError):
        SloTarget("bad", latency_threshold_s=0.0)
    with pytest.raises(ValueError):
        SloTarget("bad", windows=((60.0, 5.0, 14.4),))  # short > long
    target = SloTarget("ok", objective=0.99)
    assert target.error_budget == pytest.approx(0.01)
    assert target.windows == DEFAULT_WINDOWS


# -- burn-rate monitor --------------------------------------------------------

def _monitor(objective=0.9, windows=((5.0, 60.0, 2.0),)):
    return BurnRateMonitor(
        SloTarget("t", objective=objective, windows=windows)
    )


def test_all_good_never_fires():
    monitor = _monitor()
    for second in range(100):
        monitor.record(float(second), good=10, bad=0)
    assert monitor.burn_rate(99.0, 5.0) == 0.0
    assert not monitor.firing(99.0)
    assert monitor.attainment() == 1.0


def test_sustained_errors_fire_both_windows():
    monitor = _monitor(objective=0.9)  # budget 0.1
    for second in range(100):
        monitor.record(float(second), good=5, bad=5)  # error rate 0.5
    # burn = 0.5 / 0.1 = 5x in every window >= factor 2.0
    assert monitor.burn_rate(99.0, 5.0) == pytest.approx(5.0)
    assert monitor.burn_rate(99.0, 60.0) == pytest.approx(5.0)
    alerts = monitor.alerts(99.0)
    assert len(alerts) == 1 and alerts[0].firing
    assert monitor.firing(99.0)


def test_short_spike_alone_does_not_fire():
    """The paired long window filters blips: a 3s error burst after a long
    clean stretch exceeds the short-window factor but not the long one."""
    monitor = _monitor(objective=0.9, windows=((5.0, 60.0, 2.0),))
    for second in range(60):
        monitor.record(float(second), good=10, bad=0)
    for second in range(60, 63):
        monitor.record(float(second), good=0, bad=10)
    assert monitor.burn_rate(62.0, 5.0) >= 2.0
    assert monitor.burn_rate(62.0, 60.0) < 2.0
    assert not monitor.firing(62.0)


def test_window_counts_only_cover_trailing_window():
    monitor = _monitor()
    monitor.record(0.0, good=0, bad=100)   # ancient errors
    monitor.record(50.0, good=10, bad=0)   # recent clean traffic
    # The 5s window at t=52 sees only the clean batch.
    assert monitor.burn_rate(52.0, 5.0) == 0.0
    # The 60s window still sees the errors.
    assert monitor.burn_rate(52.0, 60.0) > 0.0


def test_record_validates_and_skips_empty():
    monitor = _monitor()
    with pytest.raises(ValueError):
        monitor.record(1.0, good=-1, bad=0)
    monitor.record(1.0, good=0, bad=0)  # no-op, no sample stored
    assert monitor.total == 0
    assert math.isnan(monitor.attainment())


def test_samples_pruned_to_longest_window():
    monitor = _monitor(windows=((1.0, 10.0, 2.0),))
    for second in range(200):
        monitor.record(float(second), good=1, bad=0)
    # Only ~10s of history is retained; cumulative totals are unaffected.
    assert len(monitor._samples) <= 12
    assert monitor.total == 200


# -- the board ----------------------------------------------------------------

def test_board_drains_recorder_incrementally():
    board = SloBoard()
    recorder = LatencyRecorder()
    target = SloTarget("frontend", objective=0.9, latency_threshold_s=0.2)
    board.watch_recorder(target, recorder)
    recorder.record(1.0, 0.1)
    recorder.record(1.5, 0.5)
    board.tick(2.0)
    monitor = board.monitors["frontend"]
    assert (monitor.good, monitor.total) == (1, 2)
    # A second tick with no new samples must not double-count.
    board.tick(3.0)
    assert (monitor.good, monitor.total) == (1, 2)
    recorder.record(3.5, 0.15)
    board.tick(4.0)
    assert (monitor.good, monitor.total) == (2, 3)


def test_board_status_rows_and_p99():
    board = SloBoard()
    board.add_target(SloTarget("api", objective=0.99, latency_threshold_s=0.3))
    board.record("api", 1.0, good=99, bad=1)
    hist = HistogramMetric("latency/api", bounds=(0.1, 0.2, 0.4))
    for _ in range(100):
        hist.observe(0.15)
    rows = board.status(2.0, {"api": hist})
    assert len(rows) == 1
    row = rows[0].as_dict()
    assert row["name"] == "api"
    assert row["attainment"] == pytest.approx(0.99)
    assert 0.1 <= row["p99_s"] <= 0.2
    assert row["alerts"] and not row["firing"]


def test_board_status_handles_empty_monitor():
    board = SloBoard()
    board.add_target(SloTarget("idle"))
    row = board.status(1.0)[0].as_dict()
    assert row["attainment"] is None
    assert row["p99_s"] is None
    assert board.firing(1.0) == []

