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

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bus": ("ListSink", "NullSink", "TraceBus"),
    ".collector": ("BOUND_ORDER", "PhaseRecord", "TraceCollector"),
    ".events": ("CACHE", "COUNTERS", "DRAM", "KINDS", "MARK", "PHASE",
                "PREFETCH", "TraceEvent"),
    ".export": ("measurement_to_dict", "to_chrome_trace", "to_jsonl"),
    ".timeline": ("COUNTER_KEYS", "DERIVED_KEYS", "Timeline",
                  "TimelineConfig", "TimelineSampler", "TimelineWindow",
                  "timeline_from_events"),
    ".trajectory": ("RooflineTrajectory", "TrajectoryPoint"),
})
