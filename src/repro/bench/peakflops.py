"""Peak computational performance microbenchmark (paper section 2.1).

The benchmark is runtime-generated code (compiler-agnostic, cannot be
dead-code-eliminated): many *independent* FP dependency chains, so the
core's issue throughput — not instruction latency — is the limit.  On
FMA-less Sandy Bridge cores the generated mix is balanced add+mul
chains (one per port); on FMA machines it is pure FMA chains.  The
chain count must cover ``latency x ports``, which the default of 12
does for every preset.

Peaks are measured per SIMD width and per thread count; the measured
value against the datasheet peak is the paper's peak-performance table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import ConfigurationError
from ..isa.builder import ProgramBuilder
from ..isa.program import Program
from ..machine.machine import Machine
from ..units import median


@dataclass(frozen=True)
class PeakFlopsResult:
    """One peak-performance measurement."""

    machine: str
    width_bits: int
    threads: int
    flops_per_second: float
    flops_per_cycle_per_core: float
    theoretical_flops_per_second: float

    @property
    def efficiency(self) -> float:
        """Measured / theoretical peak."""
        return self.flops_per_second / self.theoretical_flops_per_second


def peak_flops_program(width_bits: int, has_fma: bool,
                       chains: int = 12, trips: int = 65536) -> Program:
    """Generate the dependency-free FP chain benchmark."""
    if chains < 2 or chains % 2:
        raise ConfigurationError("chain count must be an even number >= 2")
    b = ProgramBuilder()
    operand_a = b.reg()
    operand_b = b.reg()
    accs = b.regs(chains)
    with b.loop(trips):
        if has_fma:
            for acc in accs:
                b.fma(operand_a, operand_b, acc, width=width_bits)
        else:
            # balanced mix: half the chains on the mul port, half on add
            for idx, acc in enumerate(accs):
                if idx % 2:
                    b.add(acc, operand_a, width=width_bits, dst=acc)
                else:
                    b.mul(acc, operand_a, width=width_bits, dst=acc)
    return b.build()


def measure_peak_flops(machine: Machine, width_bits: Optional[int] = None,
                       cores: Sequence[int] = (0,), chains: int = 12,
                       trips: int = 65536, reps: int = 3) -> PeakFlopsResult:
    """Measure peak flop/s at one width on a set of cores."""
    width = width_bits or machine.ports.max_simd_width
    if not machine.ports.supports_width(width):
        raise ConfigurationError(
            f"{machine.spec.name} has no {width}-bit SIMD"
        )
    cores = tuple(cores)
    program = peak_flops_program(width, machine.ports.has_fma,
                                 chains=chains, trips=trips)
    flops_per_program = program.static_counts().flops
    jobs = [(machine.load(program), core_id) for core_id in cores]
    seconds = []
    cycles = []
    for _ in range(reps):
        run = machine.run_parallel(jobs)
        seconds.append(run.seconds)
        cycles.append(run.cycles)
    best_seconds = median(seconds)
    total_flops = flops_per_program * len(cores)
    return PeakFlopsResult(
        machine=machine.spec.name,
        width_bits=width,
        threads=len(cores),
        flops_per_second=total_flops / best_seconds,
        flops_per_cycle_per_core=flops_per_program / median(cycles),
        theoretical_flops_per_second=machine.spec.theoretical_peak_flops(
            width, len(cores)
        ),
    )


def peak_flops_table(machine: Machine,
                     widths: Optional[Sequence[int]] = None,
                     thread_counts: Optional[Sequence[int]] = None,
                     trips: int = 65536) -> List[PeakFlopsResult]:
    """The paper's peak-performance table: widths x thread counts."""
    if widths is None:
        widths = [w for w in (64, 128, 256, 512)
                  if machine.ports.supports_width(w)]
    if thread_counts is None:
        thread_counts = [1, machine.topology.total_cores]
    results = []
    for width in widths:
        for threads in thread_counts:
            cores = machine.topology.first_cores(threads)
            results.append(
                measure_peak_flops(machine, width, cores, trips=trips)
            )
    return results
