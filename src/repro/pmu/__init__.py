"""Simulated performance-monitoring units: core counters (with the
Sandy Bridge FP overcount artifact), uncore IMC counters (with platform
background noise), and a perf-like session API."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core_pmu": ("CorePmu",),
    ".events": ("FP_EVENT_LANES_F32", "FP_EVENT_LANES_F64", "SCOPE_CORE",
                "SCOPE_UNCORE", "EventDef", "all_events", "event",
                "fp_event_for"),
    ".multiplex": ("DEFAULT_SLOTS", "MultiplexedPerfSession"),
    ".perf": ("PerfSession",),
    ".uncore": ("UncorePmu",),
})
