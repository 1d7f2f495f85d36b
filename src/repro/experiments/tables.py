"""Experiments T1-T3: the paper's platform and peak tables."""

from __future__ import annotations

from ..bench.peakbw import bandwidth_methods, measure_bandwidth
from ..bench.peakflops import measure_peak_flops
from ..machine.ref import MachineRef
from ..units import format_bandwidth, format_bytes, format_flops
from .base import Experiment, ExperimentConfig, ExperimentResult, Table


class PlatformTable(Experiment):
    """T1: machine characteristics (the paper's platform table)."""

    id = "T1"
    title = "Platform characteristics"
    paper_item = "platform table (evaluated machines)"

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        result = self.new_result()
        specs = [MachineRef.named(name, config.scale).spec()
                 for name in ("snb-ep", "ivb-desktop", "hsw-ep", "snb-ep-x2")]
        table = Table(
            "Simulated platforms",
            ["machine", "sockets x cores", "clock", "SIMD", "FMA",
             "L1d", "L2", "L3/socket", "peak pi (all cores)",
             "peak beta (platform)"],
        )
        for spec in specs:
            topo = spec.topology
            table.add(
                spec.name,
                f"{topo.sockets} x {topo.cores_per_socket}",
                f"{spec.base_hz / 1e9:.2f} GHz",
                f"{spec.ports.max_simd_width}-bit",
                "yes" if spec.ports.has_fma else "no",
                format_bytes(spec.hierarchy.l1.size_bytes),
                format_bytes(spec.hierarchy.l2.size_bytes),
                format_bytes(spec.hierarchy.l3.size_bytes),
                format_flops(spec.theoretical_peak_flops(
                    cores=topo.total_cores)),
                format_bandwidth(spec.theoretical_peak_bandwidth(
                    topo.sockets)),
            )
        result.tables.append(table)
        snb = specs[0]
        hsw = specs[2]
        result.check(
            "FMA machine has 2x the per-core peak of the SNB machine",
            abs(hsw.theoretical_peak_flops() / hsw.base_hz
                / (snb.theoretical_peak_flops() / snb.base_hz) - 2.0)
            < 1e-9,
        )
        result.check(
            "two-socket platform doubles bandwidth",
            specs[3].theoretical_peak_bandwidth(2)
            == 2 * snb.theoretical_peak_bandwidth(1),
        )
        return result


class PeakFlopsTable(Experiment):
    """T2: measured vs theoretical peak performance."""

    id = "T2"
    title = "Peak computational performance (measured)"
    paper_item = "peak performance table, section 2.1"

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        result = self.new_result()
        machine = config.machine()
        thread_counts = [1, machine.topology.total_cores]
        widths = [w for w in (64, 128, 256)
                  if machine.ports.supports_width(w)]
        table = Table(
            f"Measured peak flop/s on {machine.spec.name}",
            ["SIMD width", "threads", "measured", "theoretical", "efficiency"],
        )
        worst = 1.0
        for width in widths:
            for threads in thread_counts:
                cores = machine.topology.first_cores(threads)
                r = measure_peak_flops(machine, width, cores, trips=16384)
                table.add(
                    f"{width}-bit", threads,
                    format_flops(r.flops_per_second),
                    format_flops(r.theoretical_flops_per_second),
                    f"{r.efficiency:.1%}",
                )
                worst = min(worst, r.efficiency)
        result.tables.append(table)
        result.check(
            "microbenchmark reaches >= 95% of theoretical peak everywhere",
            worst >= 0.95, f"worst efficiency {worst:.1%}",
        )
        result.note(
            "The benchmark is runtime-generated dependency-free FP chains "
            "(balanced add+mul on FMA-less cores), as in the paper."
        )
        return result


class PeakBandwidthTable(Experiment):
    """T3: measured peak bandwidth by method and thread count."""

    id = "T3"
    title = "Peak memory bandwidth (measured)"
    paper_item = "bandwidth table, section 2.2"

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        result = self.new_result()
        machine = config.machine()
        all_cores = machine.topology.total_cores
        table = Table(
            f"Measured bandwidth on {machine.spec.name} (application bytes)",
            ["method", "threads", "measured", "theoretical", "efficiency"],
        )
        values = {}
        for method in bandwidth_methods():
            for threads in (1, all_cores):
                cores = machine.topology.first_cores(threads)
                r = measure_bandwidth(machine, method, cores, reps=1)
                values[(method, threads)] = r.bytes_per_second
                table.add(
                    method, threads,
                    format_bandwidth(r.bytes_per_second),
                    format_bandwidth(r.theoretical_bytes_per_second),
                    f"{r.efficiency:.1%}",
                )
        result.tables.append(table)
        result.check(
            "non-temporal memset beats write-allocate memset (socket run)",
            values[("memset-nt", all_cores)] > values[("memset", all_cores)],
            f"{values[('memset-nt', all_cores)] / values[('memset', all_cores)]:.2f}x",
        )
        result.check(
            "all-core bandwidth exceeds single-core bandwidth",
            values[("memset-nt", all_cores)] > values[("memset-nt", 1)],
        )
        result.check(
            "socket peak reaches >= 85% of theoretical via NT stores",
            values[("memset-nt", all_cores)]
            >= 0.85 * machine.spec.theoretical_peak_bandwidth(1),
        )
        result.note(
            "As in the paper, the reported beta is the maximum over "
            "independent checks; NT stores win on sockets because they "
            "avoid read-for-ownership."
        )
        return result
