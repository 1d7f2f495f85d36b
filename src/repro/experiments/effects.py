"""Experiments F9-F11: methodology effect studies.

F9 — hardware prefetch changes *measured* intensity (overfetch) while
helping runtime: the reason Q must be measured at the IMC and why the
paper runs prefetch-off validations.

F10 — cold vs warm protocols move kernel points: warm runs filter
traffic through the cache, raising intensity and performance.

F11 — why the paper disables Turbo Boost: with turbo on, the operative
clock depends on the number of active cores, so peak (and hence every
roof) is unstable.
"""

from __future__ import annotations

from dataclasses import replace

from ..bench.peakflops import measure_peak_flops
from ..kernels.blas1 import Daxpy, StreamTriad, StridedSum
from ..kernels.blas2 import Dgemv
from ..kernels.fft import Fft
from ..machine.machine import Machine
from ..measure.runner import measure_kernel
from ..units import format_bytes
from .base import Experiment, ExperimentConfig, ExperimentResult, Table
from .validation import round_to


class PrefetchEffect(Experiment):
    """F9: prefetch on/off — measured I drops, runtime improves."""

    id = "F9"
    title = "Hardware prefetch: traffic inflation vs runtime gain"
    paper_item = "prefetcher discussion, section on counting traffic"

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        import math

        result = self.new_result()
        machine = config.machine()
        l3 = machine.spec.hierarchy.l3.size_bytes
        daxpy_n = round_to(4 * l3 // 16, 32)
        strided_n = round_to(2 * l3 // 128, 32)  # footprint 2x L3 at stride 16
        cases = [
            ("unit-stride stream", Daxpy(), daxpy_n),
            ("line-skipping stride", StridedSum(stride_elems=16), strided_n),
        ]
        table = Table(
            "Prefetch effect (cold caches, DRAM-resident)",
            ["access pattern", "kernel", "n", "Q on / Q off",
             "runtime on", "runtime off", "speedup from prefetch"],
        )
        measurements = {}
        for pattern, kernel, n in cases:
            machine.prefetch_control.enable_all()
            on = measure_kernel(machine, kernel, n, protocol="cold",
                                reps=config.reps)
            machine.prefetch_control.disable_all()
            off = measure_kernel(machine, kernel, n, protocol="cold",
                                 reps=config.reps)
            machine.prefetch_control.enable_all()
            measurements[pattern] = (on, off)
            table.add(pattern, kernel.name, n,
                      f"{on.traffic_bytes / off.traffic_bytes:.3f}",
                      f"{on.runtime_seconds * 1e6:.1f} us",
                      f"{off.runtime_seconds * 1e6:.1f} us",
                      f"{off.runtime_seconds / on.runtime_seconds:.2f}x")
        result.tables.append(table)
        stream_on, stream_off = measurements["unit-stride stream"]
        walk_on, walk_off = measurements["line-skipping stride"]
        result.check(
            "prefetch improves unit-stride runtime (>5%)",
            stream_off.runtime_seconds > 1.05 * stream_on.runtime_seconds,
            f"{stream_off.runtime_seconds / stream_on.runtime_seconds:.2f}x",
        )
        result.check(
            "unit-stride streams see little traffic inflation (useful "
            "prefetches replace demand fetches)",
            stream_on.traffic_bytes <= 1.15 * stream_off.traffic_bytes,
        )
        result.check(
            "line-skipping strides suffer real overfetch (next-line "
            "prefetch fetches lines the kernel never touches)",
            walk_on.traffic_bytes >= 1.25 * walk_off.traffic_bytes,
            f"{walk_on.traffic_bytes / walk_off.traffic_bytes:.2f}x",
        )
        return result


class ColdWarmEffect(Experiment):
    """F10: the same kernel under cold vs warm protocols."""

    id = "F10"
    title = "Cold vs warm cache protocols"
    paper_item = "cold/warm measurement comparison"

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        result = self.new_result()
        machine = config.machine()
        l3 = machine.spec.hierarchy.l3.size_bytes
        import math
        gemv_n = round_to(int(math.sqrt(l3 / 2 / 8)), 8)
        fft_n = 1 << int(math.log2(max(l3 // 2 // 24, 256)))
        table = Table(
            "Cache-resident working sets: protocol comparison",
            ["kernel", "n", "protocol", "I [F/B]", "P [Gflop/s]",
             "Q / compulsory"],
        )
        gains = {}
        for kernel, n in ((Dgemv(layout="row"), gemv_n), (Fft(), fft_n)):
            cold = measure_kernel(machine, kernel, n, protocol="cold",
                                  reps=config.reps)
            warm = measure_kernel(machine, kernel, n, protocol="warm",
                                  reps=config.reps)
            for m in (cold, warm):
                table.add(kernel.name, n, m.protocol, f"{m.intensity:.3f}",
                          f"{m.performance / 1e9:.3f}",
                          f"{m.traffic_ratio:.2f}")
            gains[kernel.name] = (warm.intensity / cold.intensity,
                                  warm.performance / cold.performance)
        result.tables.append(table)
        result.check(
            "warm caches raise measured intensity (traffic filtered)",
            all(gain_i > 1.2 for gain_i, _ in gains.values()),
            f"intensity gains: "
            f"{ {k: '%.1fx' % g for k, (g, _) in gains.items()} }",
        )
        result.check(
            "warm caches raise single-pass kernel performance (dgemv)",
            gains["dgemv-row"][1] > 1.2,
            f"{gains['dgemv-row'][1]:.1f}x",
        )
        result.check(
            "multi-pass FFT amortises its cold first pass (warm within 5%)",
            gains["fft"][1] > 0.95,
            f"{gains['fft'][1]:.2f}x",
        )
        result.note(
            "Work W is identical in both protocols, so higher warm "
            "intensity directly shows the cache filtering Q — the paper's "
            "inner-product observation."
        )
        return result


class TurboEffect(Experiment):
    """F11: why measurements pin the clock."""

    id = "F11"
    title = "Turbo Boost instability"
    paper_item = "experimental setup (Turbo Boost disabled)"

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        result = self.new_result()
        machine = config.machine()
        ncores = machine.topology.total_cores
        counts = [1, 2, ncores // 2, ncores]
        counts = sorted({c for c in counts if c >= 1})
        table = Table(
            "Per-core peak vs active cores (AVX microbenchmark)",
            ["active cores", "fixed clock [Gflop/s/core]",
             "turbo clock [Gflop/s/core]"],
        )
        fixed_vals = []
        turbo_vals = []
        for active in counts:
            cores = machine.topology.first_cores(active)
            machine.governor.disable_turbo()
            fixed = measure_peak_flops(machine, None, cores, trips=2048)
            machine.governor.enable_turbo()
            turbo = measure_peak_flops(machine, None, cores, trips=2048)
            machine.governor.disable_turbo()
            fixed_vals.append(fixed.flops_per_second / active)
            turbo_vals.append(turbo.flops_per_second / active)
            table.add(active, f"{fixed_vals[-1] / 1e9:.2f}",
                      f"{turbo_vals[-1] / 1e9:.2f}")
        result.tables.append(table)
        spread_fixed = (max(fixed_vals) - min(fixed_vals)) / fixed_vals[0]
        result.check(
            "fixed-clock per-core peak is stable across active-core counts",
            spread_fixed < 0.01, f"spread {spread_fixed:.1%}",
        )
        result.check(
            "turbo per-core peak varies with active cores",
            turbo_vals[0] > turbo_vals[-1] * 1.05,
            f"1 core {turbo_vals[0] / 1e9:.2f} vs all cores "
            f"{turbo_vals[-1] / 1e9:.2f} Gflop/s/core",
        )
        result.check(
            "turbo exceeds the fixed-clock roof (unstable ceilings)",
            turbo_vals[0] > fixed_vals[0] * 1.05,
        )
        return result


class NumaBindingEffect(Experiment):
    """F12 (ours): why the paper pins threads and memory with numactl."""

    id = "F12"
    title = "NUMA binding: bound vs unbound bandwidth"
    paper_item = "NUMA/numactl discussion (sections 2.2, 2.5)"

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        from ..bench.peakbw import measure_bandwidth

        result = self.new_result()
        machine = config.machine(sockets=2)
        ncores = machine.topology.total_cores
        cores = machine.topology.first_cores(ncores)
        table = Table(
            "Two-socket streaming bandwidth (triad, all cores)",
            ["memory placement", "bandwidth [GB/s]"],
        )
        bound = measure_bandwidth(machine, "triad", cores, reps=1,
                                  bind_memory=True)
        unbound = measure_bandwidth(machine, "triad", cores, reps=1,
                                    bind_memory=False)
        table.add("bound to local node (numactl discipline)",
                  f"{bound.bytes_per_second / 1e9:.2f}")
        table.add("all on node 0 (unbound)",
                  f"{unbound.bytes_per_second / 1e9:.2f}")
        result.tables.append(table)
        result.check(
            "node-local binding beats unbound placement",
            bound.bytes_per_second > 1.3 * unbound.bytes_per_second,
            f"{bound.bytes_per_second / unbound.bytes_per_second:.2f}x",
        )
        result.note(
            "Unbound, every socket-1 access crosses the interconnect and "
            "both sockets contend for node 0's controllers — the paper "
            "runs one bound benchmark copy per node and sums instead."
        )
        return result
