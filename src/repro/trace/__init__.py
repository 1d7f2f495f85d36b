"""Structured tracing and metrics for the simulated machine.

The layer has three parts:

* a zero-overhead-when-disabled event bus (:class:`TraceBus`) that the
  interpreter, memory hierarchy, prefetchers and PMU sessions emit
  :class:`TraceEvent` objects into;
* a collector (:class:`TraceCollector`) that folds the stream into
  per-phase records and per-kernel summaries with derived metrics;
* a windowed sampler (:class:`TimelineSampler`) that bins execution
  into fixed cycle windows and derives per-window series plus the
  roofline trajectory (:class:`RooflineTrajectory`);
* exporters for Chrome trace-event JSON (Perfetto) and JSON lines.

A collector summary's Prometheus metrics go through the one metrics
registry (:meth:`repro.obs.metrics.MetricsRegistry.absorb_trace_summary`).

See ``docs/OBSERVABILITY.md`` for the full tour.
"""

from .bus import ListSink, NullSink, TraceBus
from .collector import BOUND_ORDER, PhaseRecord, TraceCollector
from .events import (
    CACHE,
    COUNTERS,
    DRAM,
    KINDS,
    MARK,
    PHASE,
    PREFETCH,
    TraceEvent,
)
from .export import (
    measurement_to_dict,
    to_chrome_trace,
    to_jsonl,
)
from .timeline import (
    COUNTER_KEYS,
    DERIVED_KEYS,
    Timeline,
    TimelineConfig,
    TimelineSampler,
    TimelineWindow,
    timeline_from_events,
)
from .trajectory import RooflineTrajectory, TrajectoryPoint

__all__ = [
    "TraceBus",
    "TraceEvent",
    "TraceCollector",
    "PhaseRecord",
    "ListSink",
    "NullSink",
    "BOUND_ORDER",
    "PHASE",
    "CACHE",
    "DRAM",
    "PREFETCH",
    "COUNTERS",
    "MARK",
    "KINDS",
    "to_chrome_trace",
    "to_jsonl",
    "measurement_to_dict",
    "Timeline",
    "TimelineConfig",
    "TimelineSampler",
    "TimelineWindow",
    "timeline_from_events",
    "COUNTER_KEYS",
    "DERIVED_KEYS",
    "RooflineTrajectory",
    "TrajectoryPoint",
]
