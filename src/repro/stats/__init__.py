"""Measurement: latency recorders, summaries, CDFs, time series, tables."""

from .recorder import (
    LatencyRecorder,
    LatencySummary,
    SlidingWindowRate,
    confidence_interval_99,
    percentile,
    percentile_cells_ms,
    summarize,
    window_percentile_cells_ms,
)
from .export import read_json, write_csv, write_json
from .tables import format_table, ms, pct
from .tracing import overhead_time, service_time, waterfall

__all__ = [
    "LatencyRecorder",
    "LatencySummary",
    "SlidingWindowRate",
    "confidence_interval_99",
    "format_table",
    "read_json",
    "write_csv",
    "write_json",
    "ms",
    "pct",
    "percentile",
    "percentile_cells_ms",
    "summarize",
    "window_percentile_cells_ms",
    "overhead_time",
    "service_time",
    "waterfall",
]
