"""Metrics collection and summary statistics."""

from repro.metrics.collector import MetricsCollector, UtilizationSnapshot
from repro.metrics.timeline import (
    Timeline,
    TimelineCollector,
    TimelineWindow,
    aggregate_timelines,
)

__all__ = [
    "MetricsCollector",
    "UtilizationSnapshot",
    "Timeline",
    "TimelineCollector",
    "TimelineWindow",
    "aggregate_timelines",
]
