"""Trace exporters: Chrome trace-event JSON and JSONL.

* :func:`to_chrome_trace` produces the Trace Event Format consumed by
  Perfetto / ``chrome://tracing``: phases become complete (``X``)
  duration events on one track per core, and the cache/DRAM/prefetch
  batch streams become cumulative counter (``C``) tracks.
* :func:`to_jsonl` writes the raw event stream one JSON object per
  line — the lossless form, for ad-hoc analysis.
* :func:`measurement_to_dict` is the machine-readable form of a
  :class:`~repro.measure.runner.Measurement` used by ``--json`` CLI
  output; it embeds the trace summary when one was collected.

A collector summary's Prometheus text comes from the metrics registry:
:meth:`repro.obs.metrics.MetricsRegistry.absorb_trace_summary`, then
``to_prometheus()``.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional

from .events import (
    CACHE,
    COUNTERS,
    DRAM,
    MARK,
    PHASE,
    PREFETCH,
    SWEEP,
    TraceEvent,
)

#: counter series exported per cache batch event
_CACHE_SERIES = ("l1_hits", "l2_hits", "l3_hits", "dram_reads",
                 "l1_evictions", "l2_evictions", "l3_evictions",
                 "tlb_misses")

#: synthetic track ids for events not owned by a core: machine-scope
#: events (``core < 0``: sweep phases, PMU snapshots, marks) and the
#: per-window timeline counter tracks.  Large so they sort after the
#: real cores in viewers that fall back to tid order.
_MACHINE_TID = 10_000
_TIMELINE_TID = 10_001

#: per-window timeline counter tracks: Perfetto track name -> list of
#: (series label in the track, derived key on the window)
_TIMELINE_TRACKS = (
    ("timeline.dram_bw_bpc", (("read", "dram_read_bpc"),
                              ("write", "dram_write_bpc"))),
    ("timeline.hit_rate", (("l1", "l1_hit_rate"),
                           ("l2", "l2_hit_rate"),
                           ("l3", "l3_hit_rate"))),
    ("timeline.ipc", (("ipc", "ipc"),)),
    ("timeline.flops_per_cycle", (("flops", "flops_per_cycle"),)),
    ("timeline.prefetch", (("accuracy", "prefetch_accuracy"),
                           ("coverage", "prefetch_coverage"))),
)


def _cycles_to_us(cycles: float, frequency_hz: float) -> float:
    return cycles / frequency_hz * 1e6


def _thread_meta(tid: int, name: str) -> List[dict]:
    """thread_name + thread_sort_index metadata pair for one track."""
    return [
        {"ph": "M", "name": "thread_name", "pid": 0, "tid": tid,
         "args": {"name": name}},
        {"ph": "M", "name": "thread_sort_index", "pid": 0, "tid": tid,
         "args": {"sort_index": tid}},
    ]


def _timeline_counter_events(timeline, frequency_hz: float) -> List[dict]:
    """Per-window counter ("C") samples for each timeline track.

    One sample at each window start plus a closing sample at ``t_end``
    holding the last window's value, so Perfetto's area rendering spans
    the final (possibly partial) window instead of dropping to zero at
    its left edge.  ``None`` series values (undefined rates) are
    skipped per-sample.
    """
    out: List[dict] = []
    if not timeline.windows:
        return out
    for track, series in _TIMELINE_TRACKS:
        samples = []
        for window in timeline.windows:
            args = {}
            for label, key in series:
                value = window.derived.get(key)
                if isinstance(value, (int, float)) and math.isfinite(value):
                    args[label] = value
            if args:
                samples.append((window.start, args))
        if not samples:
            continue
        for ts, args in samples:
            out.append({
                "ph": "C", "name": track, "cat": "timeline",
                "pid": 0, "tid": _TIMELINE_TID,
                "ts": _cycles_to_us(ts, frequency_hz), "args": args,
            })
        out.append({
            "ph": "C", "name": track, "cat": "timeline",
            "pid": 0, "tid": _TIMELINE_TID,
            "ts": _cycles_to_us(timeline.t_end, frequency_hz),
            "args": dict(samples[-1][1]),
        })
    return out


def to_chrome_trace(events: Iterable[TraceEvent],
                    frequency_hz: float = 1e9,
                    machine_name: str = "repro",
                    timeline=None) -> dict:
    """Trace Event Format document (load in Perfetto / chrome://tracing).

    Timestamps are converted from cycles to microseconds at
    ``frequency_hz``.  Batch-level events are folded into cumulative
    counter tracks; PMU snapshots and marks become instant events.
    Machine-scope events (no owning core) land on a dedicated
    "machine" track rather than masquerading as core 0.

    Pass a :class:`~repro.trace.timeline.Timeline` as ``timeline`` to
    add per-window counter tracks (DRAM bandwidth, hit rates, IPC,
    flops/cycle, prefetch quality) that render as area charts under the
    phase spans.
    """
    out: List[dict] = [{
        "ph": "M", "name": "process_name", "pid": 0, "tid": 0,
        "args": {"name": machine_name},
    }]
    counters: Dict[str, Dict[str, float]] = {}
    seen_cores = set()
    saw_machine_scope = False
    for event in events:
        ts = _cycles_to_us(event.ts, frequency_hz)
        if event.core >= 0:
            tid = event.core
            if event.core not in seen_cores:
                seen_cores.add(event.core)
                out.extend(_thread_meta(event.core, f"core {event.core}"))
        else:
            tid = _MACHINE_TID
            if not saw_machine_scope:
                saw_machine_scope = True
                out.extend(_thread_meta(_MACHINE_TID, "machine"))
        if event.kind in (PHASE, SWEEP):
            out.append({
                "ph": "X", "name": event.name, "cat": event.kind,
                "pid": 0, "tid": tid, "ts": ts,
                "dur": _cycles_to_us(event.dur, frequency_hz),
                "args": event.args,
            })
        elif event.kind in (CACHE, DRAM, PREFETCH):
            track = f"{event.kind}.{event.name}"
            running = counters.setdefault(track, {})
            for key, value in event.args.items():
                if isinstance(value, (int, float)):
                    running[key] = running.get(key, 0) + value
            if running:
                out.append({
                    "ph": "C", "name": track, "cat": event.kind,
                    "pid": 0, "tid": tid, "ts": ts,
                    "args": dict(running),
                })
        elif event.kind in (COUNTERS, MARK):
            out.append({
                "ph": "i", "name": event.name, "cat": event.kind,
                "pid": 0, "tid": tid, "ts": ts, "s": "g",
                "args": event.args,
            })
    if timeline is not None:
        out.extend(_thread_meta(_TIMELINE_TID, "timeline"))
        out.extend(_timeline_counter_events(timeline, frequency_hz))
    return {"displayTimeUnit": "ms", "traceEvents": out}


def _strict_json(value):
    """Replace non-finite floats with their string spelling.

    ``json.dumps`` would emit bare ``NaN``/``Infinity`` — tokens the
    JSON grammar does not define, which strict consumers (and most
    non-Python tooling) reject.  A corrupted metric must not corrupt
    the whole artifact line.
    """
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def to_jsonl(events: Iterable[TraceEvent]) -> str:
    """One JSON object per line, in emission order (lossless for every
    finite value; non-finite floats become strings — see
    :func:`_strict_json`)."""
    return "\n".join(
        json.dumps(_strict_json(e.to_dict()), sort_keys=True)
        for e in events
    )


def _summary_to_dict(summary) -> Optional[dict]:
    if summary is None:
        return None
    return {
        "median": summary.median,
        "mean": summary.mean,
        "min": summary.minimum,
        "max": summary.maximum,
        "count": summary.count,
        "spread": summary.spread,
    }


def measurement_to_dict(m) -> dict:
    """JSON-ready document for one Measurement (CLI ``--json`` output)."""
    doc = {
        "kernel": m.kernel,
        "n": m.n,
        "threads": m.threads,
        "protocol": m.protocol,
        "machine": m.machine,
        "reps": m.reps,
        "work_flops": m.work_flops,
        "true_flops": m.true_flops,
        "work_overcount": m.work_overcount,
        "traffic_bytes": m.traffic_bytes,
        "compulsory_bytes": m.compulsory_bytes,
        "traffic_ratio": m.traffic_ratio,
        "llc_bytes": m.llc_bytes,
        "level_bytes": m.level_bytes,
        "runtime_seconds": m.runtime_seconds,
        "performance_flops_per_s": m.performance,
        "intensity_flops_per_byte": m.intensity,
        "summaries": {
            "work": _summary_to_dict(m.work_summary),
            "traffic": _summary_to_dict(m.traffic_summary),
            "runtime": _summary_to_dict(m.runtime_summary),
        },
    }
    trace = getattr(m, "trace", None)
    if trace is not None:
        doc["trace"] = trace.summary()
    return doc
