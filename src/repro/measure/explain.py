"""Execution explanation: *why* a kernel runs at the speed it does.

The roofline says how far a kernel is from its bound; this report says
which bound.  Every phase (innermost-loop execution or straight-line
vector op) carries its cycle breakdown from the timing model; a
:class:`~repro.trace.TraceCollector` on the one explained run
aggregates them, as it does for ``repro profile``, and attributes the
kernel's runtime to FP issue, load/store ports, dependency chains,
cache-level bandwidths, DRAM bandwidth, and exposed latency — the
machine-checkable version of the judgements the paper draws by eye
("NCHW16C is compute friendly", "Winograd has headroom").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..kernels.base import CodegenCaps, Kernel
from ..machine.machine import Machine
from ..trace.collector import BOUND_ORDER, TraceCollector
from ..units import format_bytes, format_time
from .protocol import make_protocol

@dataclass
class ExecutionReport:
    """Aggregated cycle attribution for one kernel execution."""

    kernel: str
    n: int
    machine: str
    protocol: str
    total_cycles: float
    seconds: float
    dominant_cycles: Dict[str, float] = field(default_factory=dict)
    exposed_latency_cycles: float = 0.0
    phase_count: int = 0
    memory_events: Dict[str, int] = field(default_factory=dict)

    @property
    def dominant_bound(self) -> str:
        """The constraint that owns the most throughput-bound cycles."""
        return max(self.dominant_cycles, key=self.dominant_cycles.get)

    def share(self, bound: str) -> float:
        """Fraction of throughput-bound cycles attributed to ``bound``."""
        total = sum(self.dominant_cycles.values())
        return self.dominant_cycles.get(bound, 0.0) / total if total else 0.0

    def render(self) -> str:
        lines = [
            f"execution report: {self.kernel} n={self.n} on {self.machine} "
            f"({self.protocol} caches)",
            f"  runtime     : {format_time(self.seconds)} "
            f"({self.total_cycles:.0f} cycles, {self.phase_count} phases)",
            f"  bound by    : {self.dominant_bound} "
            f"({self.share(self.dominant_bound):.0%} of bound cycles)",
        ]
        total = sum(self.dominant_cycles.values())
        for bound in BOUND_ORDER:
            cycles = self.dominant_cycles.get(bound, 0.0)
            if cycles > 0 and total:
                lines.append(
                    f"    {bound:<18} {cycles:>12.0f} cycles "
                    f"({cycles / total:.0%})"
                )
        lines.append(
            f"  exposed latency on top: {self.exposed_latency_cycles:.0f} "
            f"cycles"
        )
        ev = self.memory_events
        lines.append(
            "  memory      : "
            f"{ev.get('accesses', 0)} accesses, "
            f"{ev.get('l1_hits', 0)} L1 / {ev.get('l2_hits', 0)} L2 / "
            f"{ev.get('l3_hits', 0)} L3 hits, "
            f"{ev.get('dram_reads', 0)} DRAM reads, "
            f"{ev.get('tlb_misses', 0)} TLB walks"
        )
        lines.append(
            f"  DRAM traffic: {format_bytes(64 * (ev.get('dram_reads', 0) + ev.get('writebacks', 0) + ev.get('nt_lines', 0) + ev.get('hw_prefetch_dram_reads', 0)))}"
        )
        return "\n".join(lines)


def explain_kernel(machine: Machine, kernel: Kernel, n: int,
                   protocol="warm", core: int = 0,
                   width_bits: Optional[int] = None) -> ExecutionReport:
    """Run one kernel execution under ``protocol`` and explain it."""
    caps = CodegenCaps.from_machine(machine, width_bits)
    kernel.validate_n(n, caps, 1)
    loaded = machine.load(kernel.build(n, caps))
    proto = make_protocol(protocol)
    machine.bust_caches()
    proto.prepare(machine, lambda: machine.run(loaded, core_id=core))
    collector = TraceCollector(machine, keep_events=False)
    machine.trace.attach(collector)
    try:
        run = machine.run(loaded, core_id=core)
    finally:
        machine.trace.detach()
    return ExecutionReport(
        kernel=kernel.name,
        n=n,
        machine=machine.spec.name,
        protocol=proto.name,
        total_cycles=run.result.cycles,
        seconds=run.seconds,
        dominant_cycles=collector.dominant_cycles(),
        exposed_latency_cycles=sum(p.bounds.get("exposed_latency", 0.0)
                                   for p in collector.phases),
        phase_count=len(collector.phases),
        memory_events=collector.batch_totals(),
    )
