"""Host-side observability: the simulator watching itself.

Every other observability layer in this repository (the trace bus, the
windowed timeline profiler) watches the *simulated* machine — cycles,
cache lines, DRAM CAS counts on the machine model's TSC timeline.  This
package watches the *simulator*: where host wall-time goes (compile
tier vs. execute tier vs. cache model vs. sweep executor), what the
long-lived process's counters and latency distributions look like, and
whether the committed performance baselines still hold.

Five pieces:

* :mod:`repro.obs.spans` — a hierarchical span profiler
  (``with SPANS("engine.compile"):``) instrumented through the hot
  layers, near-zero cost when disabled, exporting Chrome-trace flame
  views of host wall-time and a top-N hotspot table;
* :mod:`repro.obs.metrics` — a unified registry of counters, gauges
  and histograms behind one Prometheus/JSON export path, the only
  Prometheus writer in the repository (it also renders the machine
  plane's trace-summary counters);
* :mod:`repro.obs.remote` — the distributed telemetry plane: trace
  contexts dispatched with each sweep point, worker-side span/metrics/
  event capture, parent-side merge onto per-worker flame tracks, and
  the always-on flight recorder that dumps its ring to
  ``artifacts/flightrec/`` when a point raises or a worker dies;
* :mod:`repro.obs.dashboard` — the ``repro sweep --live`` in-terminal
  dashboard rendered from the metrics registry;
* :mod:`repro.obs.benchgate` — the perf-regression gate diffing
  freshly measured numbers against the committed ``BENCH_*.json``
  baselines.

See ``docs/OBSERVABILITY.md`` for the three-plane model (machine-time
trace bus, host-time span profiler, cross-process distributed plane)
and the metrics catalog.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".spans": ("SPANS", "SpanProfiler", "SpanRecord"),
    ".metrics": ("REGISTRY", "Counter", "Gauge", "Histogram",
                 "MetricsRegistry", "escape_help", "escape_label_value",
                 "format_labels", "format_value"),
    ".remote": ("FLIGHT", "FlightRecorder", "SpanSectionCapture",
                "TraceContext", "build_point_telemetry",
                "merge_run_telemetry"),
    ".dashboard": ("SweepDashboard",),
    ".benchgate": ("GateResult", "compare_docs", "gate_checks_for",
                   "inject_slowdown", "run_gate"),
})
