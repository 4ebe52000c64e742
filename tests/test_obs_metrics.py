"""Tests for the observability metrics registry and OpenMetrics rendering."""

import pytest

from repro.obs import MetricsRegistry, log_bucket_bounds, sanitize_metric_name


# -- naming -------------------------------------------------------------------

def test_sanitize_metric_name():
    assert sanitize_metric_name("ops/kn/copy") == "spright_ops_kn_copy"
    assert sanitize_metric_name("faults/failed/crash") == "spright_faults_failed_crash"
    assert sanitize_metric_name("a b-c", prefix="") == "a_b_c"


def test_log_bucket_bounds_deterministic_and_sorted():
    bounds = log_bucket_bounds()
    assert bounds == log_bucket_bounds()
    assert list(bounds) == sorted(bounds)
    assert bounds[0] == pytest.approx(1e-6)
    assert len(bounds) == 26


# -- counters / gauges --------------------------------------------------------

def test_counter_incr_and_negative_rejected():
    registry = MetricsRegistry()
    counter = registry.counter("requests")
    counter.incr()
    counter.incr(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.incr(-1)


def test_gauge_set_and_add():
    registry = MetricsRegistry()
    gauge = registry.gauge("inflight")
    gauge.set(3.0)
    gauge.add(-1.0)
    assert gauge.value == 2.0


def test_type_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")


def test_same_name_returns_same_metric():
    registry = MetricsRegistry()
    assert registry.counter("x") is registry.counter("x")


# -- histograms ---------------------------------------------------------------

def test_histogram_cumulative_counts():
    registry = MetricsRegistry()
    histogram = registry.histogram("lat", bounds=[1.0, 10.0, 100.0])
    for value in (0.5, 5.0, 50.0, 500.0):
        histogram.observe(value)
    cumulative = histogram.cumulative()
    assert cumulative[0] == (1.0, 1)
    assert cumulative[1] == (10.0, 2)
    assert cumulative[2] == (100.0, 3)
    assert cumulative[-1] == (float("inf"), 4)
    assert histogram.count == 4
    assert histogram.total == pytest.approx(555.5)


# -- OpenMetrics rendering ----------------------------------------------------

def test_render_openmetrics_format():
    registry = MetricsRegistry()
    registry.counter("ops/kn/copy").incr(7)
    registry.gauge("autoscale/fn/concurrency").set(3)
    histogram = registry.histogram("lat", bounds=[0.001, 0.01])
    histogram.observe(0.005)
    text = registry.render_openmetrics()
    assert "# TYPE spright_ops_kn_copy counter" in text
    assert "spright_ops_kn_copy_total 7" in text
    assert "# TYPE spright_autoscale_fn_concurrency gauge" in text
    assert "spright_autoscale_fn_concurrency 3" in text
    assert 'spright_lat_bucket{le="0.001"} 0' in text
    assert 'spright_lat_bucket{le="+Inf"} 1' in text
    assert "spright_lat_count 1" in text
    assert text.endswith("# EOF\n")


def test_render_openmetrics_sorted_and_deterministic():
    registry = MetricsRegistry()
    registry.counter("zeta").incr()
    registry.counter("alpha").incr()
    text = registry.render_openmetrics()
    assert text.index("spright_alpha") < text.index("spright_zeta")
    assert text == registry.render_openmetrics()


def test_escape_label_value_per_spec():
    """The OpenMetrics exposition format admits exactly three escapes in a
    quoted label value — backslash, newline, quote — backslash first."""
    from repro.obs.export import escape_label_value

    assert escape_label_value("plain") == "plain"
    assert escape_label_value('a"b') == 'a\\"b'
    assert escape_label_value("a\nb") == "a\\nb"
    assert escape_label_value("a\\b") == "a\\\\b"
    # Backslash escapes first: a literal \n stays a literal \n, not a
    # doubly-mangled newline escape.
    assert escape_label_value("a\\nb") == "a\\\\nb"
    assert escape_label_value('\\"\n') == '\\\\\\"\\n'


def test_render_openmetrics_with_labels_is_spec_shaped():
    from repro.obs.export import render_openmetrics

    registry = MetricsRegistry()
    registry.counter("ops/kn/copy").incr(7)
    registry.gauge("autoscale/fn/concurrency").set(3)
    histogram = registry.histogram("lat", bounds=[0.001, 0.01])
    histogram.observe(0.005)
    text = render_openmetrics(
        registry, labels={"node": 'work"er\\1', "zone": "a"}
    )
    # Label keys sorted, values escaped; le stays last on bucket lines.
    assert 'spright_ops_kn_copy_total{node="work\\"er\\\\1",zone="a"} 7' in text
    assert (
        'spright_lat_bucket{node="work\\"er\\\\1",zone="a",le="0.01"} 1' in text
    )
    assert 'spright_lat_sum{node="work\\"er\\\\1",zone="a"}' in text
    assert 'spright_lat_count{node="work\\"er\\\\1",zone="a"} 1' in text
    assert text.endswith("# EOF\n")


def test_render_openmetrics_unlabeled_matches_registry_method():
    from repro.obs.export import render_openmetrics

    registry = MetricsRegistry()
    registry.counter("ops/kn/copy").incr(2)
    registry.histogram("lat", bounds=[0.5]).observe(0.1)
    assert render_openmetrics(registry) == registry.render_openmetrics()


# -- incr/get/as_dict shorthand ------------------------------------------------

def test_legacy_counters_match_stats_counter():
    """The registry's shorthand keeps the old stats.Counter semantics."""
    registry = MetricsRegistry()
    operations = [
        ("kn/cold_starts", 1),
        ("faults/failed/crash", 2),
        ("kn/cold_starts", 3),
        ("spright/descriptors_dropped", 1),
    ]
    for name, amount in operations:
        registry.incr(name, amount)
    registry.gauge("autoscale/fn/concurrency").set(7)  # not a counter
    expected = {
        "kn/cold_starts": 4,
        "faults/failed/crash": 2,
        "spright/descriptors_dropped": 1,
    }
    assert registry.as_dict() == expected
    assert list(registry.as_dict()) == list(expected)  # first-increment order
    assert registry.get("kn/cold_starts") == 4
    # get() never creates (exactly like a dict .get default).
    assert registry.get("never/seen") == 0
    assert "never/seen" not in registry.as_dict()
    assert registry.find("never/seen") is None
    assert registry.get("autoscale/fn/concurrency") == 0
