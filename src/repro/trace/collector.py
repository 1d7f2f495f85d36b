"""Trace collection and per-phase / per-kernel summarisation.

A :class:`TraceCollector` is a sink (attach it to a machine's
:class:`~repro.trace.bus.TraceBus`) that keeps the raw event stream
*and* folds phase events into :class:`PhaseRecord` rows with derived
metrics:

* achieved vs. roof bandwidth per memory level (L2/L3 from the cache
  geometry, DRAM against the core's bandwidth share during the phase);
* the reissue-overcount attribution (how many counted flops each phase
  contributed purely through FP µop re-dispatch);
* memory-level-parallelism use (average outstanding demand misses
  implied by the exposed-latency term).

When the measurement runner brackets the measured kernel execution with
``measured:begin`` / ``measured:end`` marks, summaries are restricted
to phases inside the region; without marks every phase counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .events import CACHE, DRAM, MARK, PHASE, PREFETCH, TraceEvent

#: bound names in reporting order (mirrors the timing model)
BOUND_ORDER = (
    "fp_issue",
    "mem_issue",
    "dependency_chain",
    "l2_bandwidth",
    "l3_bandwidth",
    "dram_bandwidth",
)


@dataclass
class PhaseRecord:
    """One phase event, unpacked, with derived metrics attached."""

    name: str
    core: int
    ts: float
    cycles: float
    dominant: str
    bounds: Dict[str, float]
    trips: int
    batch: Dict[str, int]
    reissue_slots: int = 0
    reissue_flops: int = 0
    measured: bool = True
    derived: Dict[str, float] = field(default_factory=dict)


def _phase_derived(cycles: float, batch: Dict[str, int],
                   args: Dict[str, object],
                   line_bytes: int,
                   l2_roof_bpc: Optional[float],
                   l3_roof_bpc: Optional[float]) -> Dict[str, float]:
    """Bandwidth/MLP metrics for one phase."""
    derived: Dict[str, float] = {}
    if cycles <= 0:
        return derived
    l2_bpc = batch.get("l2_hits", 0) * line_bytes / cycles
    l3_bpc = batch.get("l3_hits", 0) * line_bytes / cycles
    dram_lines = (
        batch.get("dram_reads", 0)
        + batch.get("writebacks", 0)
        + batch.get("nt_lines", 0)
        + batch.get("hw_prefetch_dram_reads", 0)
    )
    dram_bpc = dram_lines * line_bytes / cycles
    derived["achieved_l2_bpc"] = l2_bpc
    derived["achieved_l3_bpc"] = l3_bpc
    derived["achieved_dram_bpc"] = dram_bpc
    if l2_roof_bpc:
        derived["l2_utilization"] = l2_bpc / l2_roof_bpc
    if l3_roof_bpc:
        derived["l3_utilization"] = l3_bpc / l3_roof_bpc
    share = args.get("dram_bpc")
    if share:
        derived["dram_utilization"] = dram_bpc / float(share)
    exposed = float(args.get("bounds", {}).get("exposed_latency", 0.0))
    derived["exposed_fraction"] = exposed / cycles
    mlp = args.get("mlp")
    if mlp:
        # exposed = serial_latency / mlp  =>  avg outstanding misses
        derived["avg_outstanding_misses"] = exposed * float(mlp) / cycles
    return derived


class TraceCollector:
    """Sink that accumulates events and produces kernel/phase summaries.

    ``machine`` (optional) supplies the cache geometry used for the
    per-level roof comparisons; without it the absolute achieved
    bandwidths are still derived, only the utilisation ratios are
    omitted.
    """

    def __init__(self, machine=None, keep_events: bool = True) -> None:
        self.events: List[TraceEvent] = []
        self.phases: List[PhaseRecord] = []
        self._keep_events = keep_events
        self._in_measured = False
        self._saw_marks = False
        self._line_bytes = 64
        self._l2_roof_bpc: Optional[float] = None
        self._l3_roof_bpc: Optional[float] = None
        self.frequency_hz: Optional[float] = None
        self.machine_name: Optional[str] = None
        if machine is not None:
            hier = machine.spec.hierarchy
            self._line_bytes = hier.line_bytes
            self._l2_roof_bpc = hier.l2.bytes_per_cycle
            self._l3_roof_bpc = hier.l3.bytes_per_cycle
            self.frequency_hz = machine.spec.base_hz
            self.machine_name = machine.spec.name

    # ------------------------------------------------------------------
    # sink interface
    # ------------------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        if self._keep_events:
            self.events.append(event)
        if event.kind == PHASE:
            args = event.args
            batch = dict(args.get("batch", {}))
            self.phases.append(PhaseRecord(
                name=event.name,
                core=event.core,
                ts=event.ts,
                cycles=event.dur,
                dominant=str(args.get("dominant", "")),
                bounds=dict(args.get("bounds", {})),
                trips=int(args.get("trips", 0)),
                batch=batch,
                reissue_slots=int(args.get("reissue_slots", 0)),
                reissue_flops=int(args.get("reissue_flops", 0)),
                measured=self._in_measured or not self._saw_marks,
                derived=_phase_derived(
                    event.dur, batch, args, self._line_bytes,
                    self._l2_roof_bpc, self._l3_roof_bpc,
                ),
            ))
        elif event.kind == MARK:
            if event.name == "measured:begin":
                self._saw_marks = True
                self._in_measured = True
                # phases recorded before the first mark were setup work
                for record in self.phases:
                    record.measured = False
            elif event.name == "measured:end":
                self._in_measured = False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def measured_phases(self) -> List[PhaseRecord]:
        if not self._saw_marks:
            return list(self.phases)
        return [p for p in self.phases if p.measured]

    def dominant_cycles(self) -> Dict[str, float]:
        """Throughput-bound cycles attributed to each binding constraint."""
        out: Dict[str, float] = {}
        for p in self.measured_phases():
            if p.dominant:
                out[p.dominant] = out.get(p.dominant, 0.0) + max(
                    p.cycles - p.bounds.get("exposed_latency", 0.0), 0.0
                )
        return out

    def batch_totals(self) -> Dict[str, int]:
        """Demand-access counters summed over the measured phases."""
        totals: Dict[str, int] = {}
        for p in self.measured_phases():
            for key, value in p.batch.items():
                totals[key] = totals.get(key, 0) + int(value)
        return totals

    def _latest_prefetch_engines(self) -> Dict[str, dict]:
        """Last cumulative per-engine counters seen on the stream."""
        engines: Dict[str, dict] = {}
        for event in self.events:
            if event.kind == PREFETCH:
                for kind, stats in event.args.get("engines", {}).items():
                    engines[kind] = dict(stats)
        return engines

    def summary(self) -> dict:
        """Aggregate, JSON-ready view of the (measured) trace."""
        phases = self.measured_phases()
        total_cycles = sum(p.cycles for p in phases)
        bounds = self.dominant_cycles()
        batch = self.batch_totals()
        line = self._line_bytes
        dram_reads = (batch.get("dram_reads", 0)
                      + batch.get("hw_prefetch_dram_reads", 0))
        dram_writes = batch.get("writebacks", 0) + batch.get("nt_lines", 0)

        def util(key: str) -> Optional[float]:
            weights = [(p.derived.get(key), p.cycles) for p in phases
                       if key in p.derived]
            total = sum(w for _v, w in weights)
            if not total:
                return None
            return sum(v * w for v, w in weights) / total

        return {
            "machine": self.machine_name,
            "phase_count": len(phases),
            "event_count": len(self.events),
            "total_cycles": total_cycles,
            "bound_cycles": bounds,
            "dominant_bound": (max(bounds, key=bounds.get) if bounds else None),
            "cache": batch,
            "dram": {
                "read_lines": dram_reads,
                "write_lines": dram_writes,
                "bytes": (dram_reads + dram_writes) * line,
            },
            "prefetch_engines": self._latest_prefetch_engines(),
            "reissue": {
                "slots": sum(p.reissue_slots for p in phases),
                "overcounted_flops": sum(p.reissue_flops for p in phases),
            },
            "bandwidth_utilization": {
                "l2": util("l2_utilization"),
                "l3": util("l3_utilization"),
                "dram": util("dram_utilization"),
            },
            "avg_outstanding_misses": util("avg_outstanding_misses"),
        }

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def phase_table(self) -> str:
        """Per-phase cycle-attribution table (aggregated by phase name)."""
        phases = self.measured_phases()
        groups: Dict[str, List[PhaseRecord]] = {}
        for p in phases:
            groups.setdefault(p.name, []).append(p)
        total = sum(p.cycles for p in phases) or 1.0
        header = (f"{'phase':<22} {'count':>6} {'cycles':>12} {'share':>6} "
                  f"{'dominant bound':<17} {'L2%':>5} {'L3%':>5} {'DRAM%':>6} "
                  f"{'MLP':>5}")
        lines = [header, "-" * len(header)]

        def wavg(records: List[PhaseRecord], key: str) -> Optional[float]:
            weights = [(r.derived.get(key), r.cycles) for r in records
                       if key in r.derived]
            weight = sum(w for _v, w in weights)
            if not weight:
                return None
            return sum(v * w for v, w in weights) / weight

        def pct(records: List[PhaseRecord], key: str) -> str:
            value = wavg(records, key)
            return "-" if value is None else f"{100.0 * value:.0f}"

        for name in sorted(groups, key=lambda g: -sum(r.cycles for r in groups[g])):
            records = groups[name]
            cycles = sum(r.cycles for r in records)
            dominant: Dict[str, float] = {}
            for r in records:
                dominant[r.dominant] = dominant.get(r.dominant, 0.0) + r.cycles
            top = max(dominant, key=dominant.get)
            mlp = wavg(records, "avg_outstanding_misses")
            lines.append(
                f"{name:<22} {len(records):>6} {cycles:>12.0f} "
                f"{cycles / total:>6.0%} {top:<17} "
                f"{pct(records, 'l2_utilization'):>5} "
                f"{pct(records, 'l3_utilization'):>5} "
                f"{pct(records, 'dram_utilization'):>6} "
                f"{'-' if mlp is None else f'{mlp:.1f}':>5}"
            )
        return "\n".join(lines)

    def bound_attribution(self) -> str:
        """Aggregate 'which resource bound the run' rendering."""
        bounds = self.dominant_cycles()
        total = sum(bounds.values())
        if not total:
            return "bound attribution: no measured phases"
        lines = ["bound attribution (throughput-bound cycles):"]
        for bound in BOUND_ORDER:
            cycles = bounds.get(bound, 0.0)
            if cycles:
                lines.append(f"  {bound:<18} {cycles:>12.0f}  "
                             f"({cycles / total:.0%})")
        return "\n".join(lines)
