"""Exporter edge cases.

Empty trace, single-window timeline, zero-observation registry, empty
span profiler: every export path must produce valid, non-NaN output
rather than crash or emit malformed documents.
"""

import json
import math

import pytest

from repro.machine.presets import tiny_test_machine
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanProfiler
from repro.trace import (
    TimelineConfig,
    TraceCollector,
    timeline_from_events,
    to_chrome_trace,
)
from .test_prometheus_format import check_exposition, trace_exposition


def _no_nan(node):
    """Recursively assert no NaN/Inf float anywhere in a JSON doc."""
    if isinstance(node, dict):
        for v in node.values():
            _no_nan(v)
    elif isinstance(node, (list, tuple)):
        for v in node:
            _no_nan(v)
    elif isinstance(node, float):
        assert math.isfinite(node), f"non-finite float leaked: {node}"


class TestEmptyTrace:
    def test_chrome_trace_of_no_events(self):
        doc = to_chrome_trace([])
        # only the process_name metadata — but a valid document
        assert doc["traceEvents"][0]["ph"] == "M"
        json.dumps(doc)  # serializable
        _no_nan(doc)

    def test_prometheus_of_empty_collector_summary(self):
        collector = TraceCollector(tiny_test_machine())
        text = trace_exposition(collector.summary())
        check_exposition(text)
        assert "NaN" not in text

    def test_empty_collector_chrome_trace(self):
        collector = TraceCollector(tiny_test_machine())
        doc = to_chrome_trace(collector.events)
        json.dumps(doc)
        _no_nan(doc)


class TestSingleWindowTimeline:
    def _events(self):
        from repro.measure import measure_kernel
        from repro.kernels.registry import make_kernel
        machine = tiny_test_machine()
        collector = TraceCollector(machine)
        measure_kernel(machine, make_kernel("daxpy"), 256, reps=1,
                       trace=collector)
        return collector.events, machine

    @staticmethod
    def _span(events, machine):
        # the windowable span is the *measured* region (between the
        # measured:begin/end marks), not the full phase stream
        from repro.trace.timeline import TimelineSampler
        sampler = TimelineSampler(machine)
        for event in events:
            sampler.emit(event)
        t0, t1 = sampler.phase_span()
        return t1 - t0

    def test_one_window_spanning_the_whole_run(self):
        events, machine = self._events()
        # window == measured span: everything lands in window 0 (wider
        # windows are rejected by design)
        config = TimelineConfig(self._span(events, machine))
        timeline = timeline_from_events(events, config, machine=machine)
        assert len(timeline) == 1
        doc = to_chrome_trace(events, timeline=timeline)
        json.dumps(doc)
        _no_nan(doc)
        assert timeline.to_csv()  # renders without crashing

    def test_single_window_json_doc_finite(self):
        events, machine = self._events()
        config = TimelineConfig(self._span(events, machine))
        timeline = timeline_from_events(events, config, machine=machine)
        _no_nan(json.loads(json.dumps(timeline.to_json_doc())))


class TestZeroObservationRegistry:
    def test_prometheus_valid_with_zero_state(self):
        reg = MetricsRegistry()
        reg.counter("repro_c_total", "never incremented")
        reg.gauge("repro_g", "never set")
        reg.histogram("repro_h_seconds", "never observed", buckets=(1.0,))
        text = reg.to_prometheus()
        check_exposition(text)
        assert "repro_c_total 0" in text
        assert 'repro_h_seconds_bucket{le="+Inf"} 0' in text
        assert "repro_h_seconds_count 0" in text
        assert "NaN" not in text

    def test_json_doc_with_zero_state(self):
        reg = MetricsRegistry()
        reg.histogram("repro_h_seconds", "never observed", buckets=(1.0,))
        doc = reg.to_json_doc()
        json.dumps(doc)
        assert doc["repro_h_seconds"]["series"][0]["mean"] is None

    def test_labelled_zero_state_emits_no_samples(self):
        # a labelled family with no observed series has nothing to
        # render — but the HELP/TYPE header must still be well-formed
        reg = MetricsRegistry()
        reg.counter("repro_c_total", "labelled", labelnames=("k",))
        check_exposition(reg.to_prometheus())


class TestEmptySpanProfiler:
    def test_chrome_trace_of_no_spans(self):
        doc = SpanProfiler().to_chrome_trace()
        json.dumps(doc)
        _no_nan(doc)
        assert all(e["ph"] == "M" for e in doc["traceEvents"])

    def test_json_doc_of_no_spans(self):
        doc = SpanProfiler().to_json_doc()
        assert doc == {"spans": 0, "dropped": 0, "root_seconds": 0.0,
                       "hotspots": []}

    def test_hotspot_table_of_no_spans(self):
        table = SpanProfiler().hotspot_table()
        assert "span" in table  # header renders, no division by zero
