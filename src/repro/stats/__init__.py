"""Measurement: latency recorders, summaries, CDFs, time series, tables."""

from .recorder import (
    LatencyRecorder,
    LatencySummary,
    SlidingWindowRate,
    percentile,
    percentile_cells_ms,
    summarize,
    window_percentile_cells_ms,
)
from .export import write_json
from .tables import format_table, pct
from .tracing import overhead_time, service_time, waterfall

__all__ = [
    "LatencyRecorder",
    "LatencySummary",
    "SlidingWindowRate",
    "format_table",
    "write_json",
    "pct",
    "percentile",
    "percentile_cells_ms",
    "summarize",
    "window_percentile_cells_ms",
    "overhead_time",
    "service_time",
    "waterfall",
]
