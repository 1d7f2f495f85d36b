"""Exporter formats: Chrome trace-event JSON, JSONL, and the Prometheus
text of a collector summary (rendered by the metrics registry)."""

import json

import repro.trace
from repro.trace import (
    CACHE,
    DRAM,
    MARK,
    PHASE,
    TraceCollector,
    TraceEvent,
    to_chrome_trace,
    to_jsonl,
)

from tests.obs.test_prometheus_format import trace_exposition

EVENTS = [
    TraceEvent(PHASE, "loop:j", 0.0, core=0, dur=100.0,
               args={"trips": 8, "dominant": "dram_bandwidth",
                     "bounds": {"dram_bandwidth": 90.0,
                                "exposed_latency": 10.0},
                     "batch": {"l1_hits": 3, "dram_reads": 2},
                     "dram_bpc": 4.0, "mlp": 8.0,
                     "reissue_slots": 0, "reissue_flops": 0}),
    TraceEvent(CACHE, "core0", 0.0, core=0,
               args={"l1_hits": 3, "l2_hits": 1, "l3_hits": 0,
                     "l1_evictions": 0, "l2_evictions": 0,
                     "l3_evictions": 0, "tlb_misses": 1,
                     "accesses": 6, "flushes": 0}),
    TraceEvent(DRAM, "node0", 0.0, core=0,
               args={"reads": 2, "writes": 1, "demand_reads": 2,
                     "prefetch_reads": 0, "remote_lines": 0}),
    TraceEvent(CACHE, "core0", 100.0, core=0,
               args={"l1_hits": 5, "l2_hits": 0, "l3_hits": 0,
                     "l1_evictions": 0, "l2_evictions": 0,
                     "l3_evictions": 0, "tlb_misses": 0,
                     "accesses": 5, "flushes": 0}),
    TraceEvent(MARK, "measured:begin", 0.0),
]


class TestChromeTrace:
    def test_document_shape(self):
        doc = to_chrome_trace(EVENTS, frequency_hz=1e9)
        assert set(doc) == {"displayTimeUnit", "traceEvents"}
        json.dumps(doc)  # must be JSON-serialisable

    def test_phase_becomes_complete_event_in_microseconds(self):
        doc = to_chrome_trace(EVENTS, frequency_hz=1e9)
        x = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert x["name"] == "loop:j"
        assert x["tid"] == 0
        # 100 cycles at 1 GHz = 0.1 us
        assert abs(x["dur"] - 0.1) < 1e-12

    def test_counter_tracks_are_cumulative(self):
        doc = to_chrome_trace(EVENTS, frequency_hz=1e9)
        cache = [e for e in doc["traceEvents"]
                 if e["ph"] == "C" and e["name"] == "cache.core0"]
        assert len(cache) == 2
        assert cache[0]["args"]["l1_hits"] == 3
        assert cache[1]["args"]["l1_hits"] == 8  # 3 + 5, running total

    def test_counter_args_are_flat_numbers(self):
        doc = to_chrome_trace(EVENTS, frequency_hz=1e9)
        for e in doc["traceEvents"]:
            if e["ph"] == "C":
                assert all(isinstance(v, (int, float))
                           for v in e["args"].values())

    def test_marks_become_instants(self):
        doc = to_chrome_trace(EVENTS, frequency_hz=1e9)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert any(e["name"] == "measured:begin" for e in instants)

    def test_metadata_names_process_and_threads(self):
        doc = to_chrome_trace(EVENTS, frequency_hz=1e9, machine_name="snb")
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "process_name"
                   and e["args"]["name"] == "snb" for e in meta)
        assert any(e["name"] == "thread_name" for e in meta)


class TestJsonl:
    def test_one_object_per_line_roundtrips(self):
        text = to_jsonl(EVENTS)
        lines = text.splitlines()
        assert len(lines) == len(EVENTS)
        first = json.loads(lines[0])
        assert first["kind"] == PHASE
        assert first["name"] == "loop:j"
        assert first["dur"] == 100.0


class TestPrometheus:
    def make_summary(self):
        col = TraceCollector()
        # feed only the counter/phase events; the trailing mark would
        # otherwise scope the summary to an empty measured region
        for event in EVENTS:
            if event.kind != MARK:
                col.emit(event)
        return col.summary()

    def test_exposition_format(self):
        text = trace_exposition(self.make_summary())
        assert "# HELP repro_phase_count" in text
        assert "# TYPE repro_phase_count gauge" in text
        assert "repro_phase_count 1" in text

    def test_bound_cycles_labelled(self):
        text = trace_exposition(self.make_summary())
        assert 'repro_bound_cycles_total{bound="dram_bandwidth"} 90' in text

    def test_dram_lines_labelled_by_direction(self):
        text = trace_exposition(self.make_summary())
        assert 'repro_dram_lines_total{dir="read"}' in text
        assert 'repro_dram_lines_total{dir="write"}' in text

    def test_trace_package_has_no_prometheus_writer(self):
        assert not hasattr(repro.trace, "to_prometheus")
        assert not hasattr(repro.trace.export, "to_prometheus")
