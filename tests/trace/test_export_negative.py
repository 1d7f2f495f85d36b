"""Exporter negative paths: malformed events and non-finite metrics.

The exporters sit on the CI/artifact boundary — a malformed event or a
NaN metric must degrade to well-formed output (or a clear error), not
to a silently corrupt trace file that Perfetto rejects hours later.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.trace.events import CACHE, MARK, PHASE, TraceEvent
from repro.trace.export import to_chrome_trace, to_jsonl

from tests.obs.test_prometheus_format import trace_exposition


def test_chrome_trace_ignores_unknown_event_kinds():
    events = [
        TraceEvent("no-such-kind", "mystery", ts=0.0),
        TraceEvent(PHASE, "loop", ts=0.0, core=0, dur=10.0),
    ]
    doc = to_chrome_trace(events)
    names = [e.get("name") for e in doc["traceEvents"]]
    assert "loop" in names and "mystery" not in names


def test_chrome_trace_skips_non_numeric_counter_args():
    events = [
        TraceEvent(CACHE, "port0", ts=1.0, core=0,
                   args={"l1_hits": 3, "note": "not-a-number"}),
    ]
    doc = to_chrome_trace(events)
    counter = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert counter and counter[0]["args"] == {"l1_hits": 3}
    json.dumps(doc)  # must stay serialisable


def test_chrome_trace_empty_stream_is_valid_document():
    doc = to_chrome_trace([])
    assert doc["traceEvents"][0]["name"] == "process_name"
    json.dumps(doc)


def test_jsonl_round_trips_every_event_field():
    events = [TraceEvent(MARK, "m", ts=2.5, core=1, args={"k": 7})]
    line = json.loads(to_jsonl(events))
    assert line == {"kind": "mark", "name": "m", "ts": 2.5,
                    "core": 1, "dur": 0.0, "args": {"k": 7}}


def test_jsonl_non_finite_values_stay_strict_json():
    # bare `NaN`/`Infinity` are not JSON; the exporter must spell them
    # as strings so a strict parser still reads every line
    events = [TraceEvent(MARK, "bad", ts=float("nan"),
                         args={"rate": float("inf")})]
    line = json.loads(to_jsonl(events), parse_constant=_reject_constant)
    assert line["ts"] == "nan"
    assert line["args"]["rate"] == "inf"


def _reject_constant(value):
    raise ValueError(f"non-standard JSON constant: {value}")


def test_prometheus_renders_non_finite_metrics_as_valid_text():
    # Prometheus text format allows NaN/+Inf spellings; what matters
    # is that the renderer does not crash and every line stays
    # `name{labels} value`-shaped
    summary = {
        "phase_count": float("nan"),
        "total_cycles": float("inf"),
    }
    text = trace_exposition(summary)
    for line in text.splitlines():
        if line.startswith("#") or not line:
            continue
        name, _, value = line.rpartition(" ")
        assert name
        float(value)  # nan/inf parse; garbage does not


def test_prometheus_empty_summary_stays_well_formed():
    # no crash, and every sample line parses as `name{labels} value`
    for line in trace_exposition({}).splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            assert name.startswith("repro_")
            float(value)
