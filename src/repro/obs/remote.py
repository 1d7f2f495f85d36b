"""Distributed telemetry plane: worker-side capture, parent-side merge.

The sweep executor fans points out to ``ProcessPoolExecutor`` workers,
and before this module everything observed *inside* a worker — spans
from ``SPANS("sweep.point")``, metrics increments — died with the
worker process.  This module is the transport between those two
worlds:

* :class:`TraceContext` — the picklable per-point context the parent
  attaches to each dispatch (run id, point index, collection switch).
  It rides to the worker as a second argument to
  :func:`repro.sweep.executor.simulate_point`.
* :class:`SpanSectionCapture` — captures the spans a point produces as
  a self-contained *section* (records with section-relative parent
  indices, per-name aggregate deltas, a dropped count).  Two modes:
  **owned** (the profiler was disabled, so the capture enables it and
  restores the exact prior state afterwards — the worker steady state)
  and **inline** (the profiler was already enabled, e.g. under
  ``repro selfprofile`` or in a worker forked from an enabled parent;
  the section is sliced out without disturbing the live record list,
  and the merge step knows not to absorb a section of its own process
  twice).
* :func:`build_point_telemetry` / :func:`merge_run_telemetry` — the
  worker-side section builder and the parent-side merge.  The merge
  lands worker spans on per-pid flame tracks with causal flow links
  from the parent's dispatch instant (``time.perf_counter_ns`` is
  CLOCK_MONOTONIC-based on Linux, so worker timestamps are directly
  comparable), folds metrics deltas into the parent registry
  (counters sum, gauges last-write, histograms bucket-merge), and
  produces the compact ``telemetry`` summary that ``repro sweep
  --json`` exposes.  Workers never trace the machine: a point's
  telemetry is its spans and metrics, not its trace-bus events.
* :class:`FlightRecorder` / :data:`FLIGHT` — the always-on fixed-size
  ring of breadcrumbs every worker keeps, dumped to
  ``artifacts/flightrec/`` with the failing point's repr when a point
  raises (worker-side dump) or a worker dies (parent-side dump naming
  the in-flight points).

Telemetry stays strictly **outside** the content-addressed result
cache: the executor pops the ``"telemetry"`` payload section before
``cache.store``, so serial, parallel and cached runs keep bit-identical
measurement checksums, and cache replays are marked
``replayed-from-cache`` in the summary instead of fabricating worker
sections.
"""

from __future__ import annotations

import json
import os
import signal
import time
import uuid
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

from .metrics import REGISTRY, MetricsRegistry
from .spans import SPANS, SpanProfiler

__all__ = [
    "FLIGHT",
    "FlightRecorder",
    "SpanSectionCapture",
    "TraceContext",
    "TELEMETRY_VERSION",
    "build_point_telemetry",
    "maybe_fault",
    "merge_run_telemetry",
    "new_run_id",
]

#: telemetry payload-section schema version
TELEMETRY_VERSION = 2

#: where flight-recorder dumps land unless overridden
FLIGHTREC_DIR_ENV = "REPRO_FLIGHTREC_DIR"
DEFAULT_FLIGHTREC_DIR = os.path.join("artifacts", "flightrec")

#: fault-injection hooks (tests and the CI smoke job): when the value
#: equals the point's ``kernel:n`` label, the worker raises / dies
CRASH_ENV = "REPRO_DISTTRACE_CRASH"
KILL_ENV = "REPRO_DISTTRACE_KILL"


def new_run_id() -> str:
    """Short unique id tying one ``run_plan`` call's telemetry together."""
    return uuid.uuid4().hex[:12]


# ----------------------------------------------------------------------
# context propagation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceContext:
    """Picklable per-point trace context (parent → worker).

    ``collect`` switches span/metrics capture; the flight recorder and
    fault hooks are always on regardless (breadcrumbs are a handful of
    dict appends per point).
    """

    run_id: str
    point_index: int
    collect: bool = True


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
class FlightRecorder:
    """Always-on bounded ring of recent breadcrumbs in every process.

    A breadcrumb is one plain dict (monotonic timestamp, kind, detail
    fields); :meth:`note` costs one dict build and one deque append, so
    the recorder stays on even in the telemetry-disabled fast path.
    :meth:`dump` snapshots the ring to ``artifacts/flightrec/`` (or
    ``$REPRO_FLIGHTREC_DIR``) together with the failure reason and the
    failing point's repr — the black box a post-mortem starts from.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"flight capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.total = 0
        self._ring: "deque[dict]" = deque(maxlen=capacity)
        self._dumps = 0

    def note(self, kind: str, what: str, **attrs) -> None:
        self.total += 1
        row = {"t_ns": time.perf_counter_ns(), "kind": kind, "what": what}
        if attrs:
            row.update(attrs)
        self._ring.append(row)

    def records(self) -> List[dict]:
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()
        self.total = 0

    def __len__(self) -> int:
        return len(self._ring)

    def dump(self, reason: str, point: Optional[str] = None,
             directory: Optional[str] = None, **extra) -> str:
        """Write the ring to disk; returns the dump file path."""
        directory = (directory
                     or os.environ.get(FLIGHTREC_DIR_ENV, "").strip()
                     or DEFAULT_FLIGHTREC_DIR)
        os.makedirs(directory, exist_ok=True)
        self._dumps += 1
        pid = os.getpid()
        path = os.path.join(
            directory,
            f"flight-{int(time.time() * 1e3)}-{pid}-{self._dumps}.json",
        )
        doc = {
            "reason": reason,
            "point": point,
            "pid": pid,
            "recorded": self.total,
            "retained": len(self._ring),
            "records": self.records(),
        }
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, default=str)
            handle.write("\n")
        return path


#: the process-wide flight recorder (workers inherit a fresh one)
FLIGHT = FlightRecorder()


def maybe_fault(label: str) -> None:
    """Test/CI fault-injection hooks, matched on ``kernel:n``.

    ``$REPRO_DISTTRACE_CRASH`` raises inside the worker (exercises the
    worker-side flight dump + :class:`~repro.errors.SweepPointError`
    path); ``$REPRO_DISTTRACE_KILL`` SIGKILLs the worker process
    (exercises the parent-side BrokenProcessPool dump).  Both are
    inert unless the environment value equals ``label`` exactly.
    """
    if os.environ.get(CRASH_ENV, "") == label:
        raise RuntimeError(f"injected crash at point {label} "
                           f"(${CRASH_ENV})")
    if os.environ.get(KILL_ENV, "") == label:
        FLIGHT.note("fault", "injected kill", point=label)
        os.kill(os.getpid(), signal.SIGKILL)


# ----------------------------------------------------------------------
# worker-side span capture
# ----------------------------------------------------------------------
class SpanSectionCapture:
    """Capture the spans produced inside a with-block as a section.

    The section's ``records`` carry parent indices relative to the
    section start (``-1`` for section roots) and depths relative to the
    shallowest captured span, so :meth:`SpanProfiler.absorb_remote` can
    splice them into any host profiler.  ``aggregates`` are the *delta*
    the block added to the per-name tables.

    Owned mode (profiler disabled on entry) enables the profiler for
    the block and restores records/aggregates/dropped/enabled exactly
    afterwards — repeated points in a long-lived pool worker never leak
    state into each other.  Inline mode (already enabled) leaves the
    live profiler untouched and only slices; the section is tagged so
    the merge step skips re-absorbing spans that are already present
    (it checks the pid: a forked worker's inline spans are not).
    """

    def __init__(self, profiler: Optional[SpanProfiler] = None) -> None:
        self.profiler = profiler if profiler is not None else SPANS
        self.section: Optional[dict] = None
        self._owned = False
        self._mark = 0
        self._dropped0 = 0
        self._agg0: Dict[str, List[int]] = {}

    def __enter__(self) -> "SpanSectionCapture":
        profiler = self.profiler
        self._owned = not profiler.enabled
        self._mark = len(profiler.records)
        self._dropped0 = profiler.dropped
        self._agg0 = {name: list(agg)
                      for name, agg in profiler._agg.items()}
        if self._owned:
            profiler.enable()
        return self

    def __exit__(self, *_exc) -> bool:
        profiler = self.profiler
        mark = self._mark
        rows = profiler.records[mark:]
        base_depth = min((r.depth for r in rows), default=0)
        records = []
        for record in rows:
            row = {
                "name": record.name,
                "start_ns": record.start_ns,
                "dur_ns": record.dur_ns,
                "depth": record.depth - base_depth,
                "parent": (record.parent - mark
                           if record.parent >= mark else -1),
            }
            if record.attrs:
                row["attrs"] = dict(record.attrs)
            records.append(row)
        aggregates: Dict[str, List[int]] = {}
        for name, agg in profiler._agg.items():
            before = self._agg0.get(name, [0, 0, 0])
            delta = [agg[0] - before[0], agg[1] - before[1],
                     agg[2] - before[2]]
            if any(delta):
                aggregates[name] = delta
        self.section = {
            "mode": "owned" if self._owned else "inline",
            "records": records,
            "aggregates": aggregates,
            "dropped": profiler.dropped - self._dropped0,
        }
        if self._owned:
            del profiler.records[mark:]
            profiler._agg = self._agg0
            profiler.dropped = self._dropped0
            profiler.disable()
        return False


# ----------------------------------------------------------------------
# worker-side section assembly
# ----------------------------------------------------------------------
def build_point_telemetry(ctx: TraceContext, spans: Optional[dict],
                          busy_ns: int,
                          metrics: Optional[MetricsRegistry] = None
                          ) -> dict:
    """Assemble the ``telemetry`` payload section for one point.

    The worker-labelled metric families are built in a throwaway
    registry (``metrics``, when the point already counted into one of
    its own) and shipped as a :meth:`MetricsRegistry.to_delta_doc`
    snapshot, so the parent-side merge is the same ``absorb_delta``
    path the tests pin down.
    """
    pid = os.getpid()
    local = metrics if metrics is not None else MetricsRegistry()
    local.counter(
        "repro_sweep_worker_points_total",
        "Sweep points simulated, by worker process",
        labelnames=("worker",),
    ).inc(worker=pid)
    local.counter(
        "repro_sweep_worker_busy_seconds_total",
        "Wall time spent simulating sweep points, by worker process",
        labelnames=("worker",),
    ).inc(busy_ns / 1e9, worker=pid)
    return {
        "version": TELEMETRY_VERSION,
        "run": ctx.run_id,
        "index": ctx.point_index,
        "worker": {"pid": pid},
        "busy_ns": busy_ns,
        "spans": spans or {"mode": "owned", "records": [],
                           "aggregates": {}, "dropped": 0},
        "metrics": local.to_delta_doc(),
    }


# ----------------------------------------------------------------------
# parent-side merge
# ----------------------------------------------------------------------
def merge_run_telemetry(run_id: str, sections: List[Optional[dict]],
                        statuses: List[str], labels: List[str],
                        submit_ns: List[Optional[int]],
                        elapsed_seconds: float,
                        profiler: Optional[SpanProfiler] = None,
                        registry: Optional[MetricsRegistry] = None,
                        collected: bool = True) -> dict:
    """Fold per-point telemetry sections into the parent and summarise.

    ``sections``/``statuses``/``labels``/``submit_ns`` are parallel
    arrays in plan order; cache hits have no section and show up as
    ``replayed-from-cache`` rows.  Span sections are counted always,
    but absorbed only into an enabled ``profiler``: each lands on its
    worker's flame track with a causal link from the parent's dispatch
    instant.  An inline section from this process (a serial run under
    the enabled profiler) already sits in it and is not absorbed again;
    one from another pid is a worker forked from an enabled parent, so
    its records are absorbed like an owned section's.  Worker
    metric deltas merge into ``registry`` and a
    ``repro_sweep_worker_utilization`` gauge (busy seconds / run wall
    seconds) is set per worker.
    """
    profiler = profiler if profiler is not None else SPANS
    registry = registry if registry is not None else REGISTRY
    workers: Dict[int, dict] = {}
    points: List[dict] = []

    for idx, section in enumerate(sections):
        status = statuses[idx] if idx < len(statuses) else ""
        row = {"index": idx, "label": labels[idx],
               "status": ("replayed-from-cache" if status == "hit"
                          else "simulated")}
        if section is None:
            points.append(row)
            continue
        pid = int(section.get("worker", {}).get("pid", 0))
        row["worker"] = pid
        points.append(row)
        worker = workers.setdefault(pid, {
            "pid": pid, "points": 0, "busy_seconds": 0.0,
            "spans": 0, "span_records_dropped": 0,
        })
        worker["points"] += 1
        worker["busy_seconds"] += section.get("busy_ns", 0) / 1e9
        spans = section.get("spans") or {}
        local = spans.get("mode") == "inline" and pid == os.getpid()
        if profiler.enabled and pid and not local:
            absorbed = profiler.absorb_remote(
                spans, track=pid, track_name=f"sweep worker {pid}",
                link={"id": f"{run_id}:{idx}",
                      "submit_ns": submit_ns[idx]
                      if idx < len(submit_ns) else None},
            )
            worker["spans"] += absorbed
            worker["span_records_dropped"] += max(
                0, len(spans.get("records") or []) - absorbed)
        else:
            worker["spans"] += len(spans.get("records") or [])
        metrics = section.get("metrics")
        if metrics:
            registry.absorb_delta(metrics)

    if elapsed_seconds > 0 and workers:
        utilization = registry.gauge(
            "repro_sweep_worker_utilization",
            "Fraction of the sweep wall time each worker spent busy",
            labelnames=("worker",),
        )
        for pid, worker in workers.items():
            worker["utilization"] = min(
                1.0, worker["busy_seconds"] / elapsed_seconds)
            utilization.set(worker["utilization"], worker=pid)

    cached = sum(1 for row in points
                 if row["status"] == "replayed-from-cache")
    return {
        "version": TELEMETRY_VERSION,
        "run": run_id,
        "collected": collected,
        "workers": [workers[pid] for pid in sorted(workers)],
        "points": points,
        "cached_points": cached,
    }
