"""Experiments F1, F4-F8: the roofline figures themselves.

Measurement grids are submitted to the sweep engine
(:mod:`repro.sweep`) rather than looped inline: points run under the
config's ``jobs``/``cache`` settings, so repeated experiment runs only
simulate points whose inputs changed.  Size selection lives in
:mod:`repro.sweep.grids`, shared with ``repro sweep --grid``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..measure.runner import Measurement
from ..roofline.analysis import analyze_point
from ..roofline.builder import build_roofline, theoretical_roofline
from ..roofline.export import trajectories_to_csv
from ..roofline.plot_ascii import ascii_plot
from ..roofline.plot_svg import svg_plot
from ..roofline.point import KernelPoint, Trajectory
from ..sweep.grids import (
    DGEMM_VARIANTS,
    daxpy_sizes,
    dgemm_sizes,
    dgemv_sizes,
    fft_sizes,
)
from ..units import round_to
from .base import Experiment, ExperimentConfig, ExperimentResult, Table


def _sweep(config: ExperimentConfig, kernel: str, sizes, protocol,
           series=None, cores=(0,),
           ) -> Tuple[Trajectory, List[Measurement]]:
    """Submit a size sweep and wrap it as a plot trajectory."""
    measurements = config.sweep(kernel, sizes, protocol=protocol,
                                cores=cores)
    name = series or f"{kernel} ({protocol})"
    return Trajectory.from_measurements(name, measurements), measurements


def _points_table(title: str, measurements: Sequence[Measurement]) -> Table:
    """One row per point; an intensity is ``>=`` when its traffic is
    below the noise floor (only a lower bound is known)."""
    table = Table(title, ["kernel", "n", "protocol", "threads",
                          "I [F/B]", "P [Gflop/s]"])
    for m in measurements:
        bound = ">=" if m.below_noise_floor else ""
        table.add(m.kernel, m.n, m.protocol, m.threads,
                  f"{bound}{m.intensity:.3f}", f"{m.performance / 1e9:.3f}")
    return table


class ExampleRoofline(Experiment):
    """F1: the illustrative roofline (model only, no kernel points)."""

    id = "F1"
    title = "Example roofline model"
    paper_item = "Figure 1 (model illustration)"

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        result = self.new_result()
        machine = config.machine()
        model = theoretical_roofline(machine, threads=1)
        table = Table(
            "Model parameters",
            ["quantity", "value"],
        )
        table.add("peak pi", f"{model.peak_flops / 1e9:.2f} Gflop/s")
        table.add("peak beta", f"{model.peak_bandwidth / 1e9:.2f} GB/s")
        table.add("ridge intensity", f"{model.ridge_intensity:.2f} flops/byte")
        result.tables.append(table)
        result.artifacts["f1_example.svg"] = svg_plot(
            model, title="Example roofline (theoretical)"
        )
        result.artifacts["f1_example.txt"] = ascii_plot(model)
        below = model.attainable(model.ridge_intensity / 10)
        result.check(
            "attainable performance is bandwidth-limited left of the ridge",
            abs(below - model.peak_bandwidth * model.ridge_intensity / 10)
            < 1e-6 * model.peak_flops,
        )
        result.check(
            "attainable performance equals pi right of the ridge",
            model.attainable(model.ridge_intensity * 10) == model.peak_flops,
        )
        return result


class DaxpyRoofline(Experiment):
    """F4: daxpy trajectory across sizes, cold and warm."""

    id = "F4"
    title = "Roofline: daxpy"
    paper_item = "daxpy roofline figure (memory-bound trajectory)"

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        result = self.new_result()
        machine = config.machine()
        hier = machine.spec.hierarchy
        sizes = daxpy_sizes(machine.spec)
        model = build_roofline(machine, cores=(0,), trips=4096,
                               stream_elements=round_to(
                                   2 * hier.l3.size_bytes // 8, 64))
        cold_t, cold_m = _sweep(config, "daxpy", sizes, "cold")
        warm_t, warm_m = _sweep(config, "daxpy", sizes, "warm")
        result.tables.append(_points_table("daxpy points", cold_m + warm_m))
        result.artifacts["f4_daxpy.svg"] = svg_plot(
            model, trajectories=[cold_t, warm_t], title="Roofline: daxpy"
        )
        result.artifacts["f4_daxpy.csv"] = trajectories_to_csv(
            [cold_t, warm_t])

        largest_cold = cold_m[-1]
        roof = model.attainable(largest_cold.intensity)
        result.check(
            "DRAM-resident daxpy rides the bandwidth roof (60-135%)",
            0.60 <= largest_cold.performance / roof <= 1.35,
            f"{largest_cold.performance / roof:.0%} of roof",
        )
        result.check(
            "daxpy stays memory-bound at every size",
            all(m.intensity < model.ridge_intensity for m in cold_m),
        )
        result.check(
            "warm cache-resident daxpy outperforms DRAM-resident daxpy",
            warm_m[0].performance > cold_m[-1].performance,
        )
        result.note(
            "Cold memory-bound points can sit slightly above the roof: "
            "measured Q includes prefetch overfetch, pushing I left of the "
            "kernel's useful-traffic intensity — the paper reports the same."
        )
        return result


class DgemvRoofline(Experiment):
    """F5: dgemv, row-major vs column-major layouts."""

    id = "F5"
    title = "Roofline: dgemv (row vs column major)"
    paper_item = "dgemv roofline figure"

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        result = self.new_result()
        machine = config.machine()
        hier = machine.spec.hierarchy
        sizes = dgemv_sizes(machine.spec)
        model = build_roofline(machine, cores=(0,), trips=4096,
                               stream_elements=round_to(
                                   2 * hier.l3.size_bytes // 8, 64))
        row_t, row_m = _sweep(config, "dgemv-row", sizes, "cold")
        col_t, col_m = _sweep(config, "dgemv-col", sizes, "cold")
        result.tables.append(_points_table("dgemv points", row_m + col_m))
        result.artifacts["f5_dgemv.svg"] = svg_plot(
            model, trajectories=[row_t, col_t],
            title="Roofline: dgemv row vs column major",
        )
        largest = -1
        result.check(
            "row-major dgemv beats column-major at the largest size",
            row_m[largest].performance > col_m[largest].performance,
            f"{row_m[largest].performance / col_m[largest].performance:.1f}x",
        )
        result.check(
            "dgemv is memory-bound",
            all(m.intensity < model.ridge_intensity for m in row_m),
        )
        result.check(
            "column-major walk inflates traffic beyond row-major",
            col_m[largest].traffic_bytes > row_m[largest].traffic_bytes,
        )
        return result


class DgemmRoofline(Experiment):
    """F6: dgemm implementations approaching the compute roof."""

    id = "F6"
    title = "Roofline: dgemm (naive / ikj / tiled)"
    paper_item = "dgemm roofline figure (compute-bound kernel)"

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        result = self.new_result()
        machine = config.machine()
        sizes = dgemm_sizes(machine.spec)
        model = build_roofline(machine, cores=(0,), trips=4096,
                               stream_elements=round_to(
                                   machine.spec.hierarchy.l3.size_bytes // 8,
                                   64))
        trajectories = []
        by_variant = {}
        for variant in DGEMM_VARIANTS:
            vsizes = [n for n in sizes if n % 32 == 0]
            traj, ms = _sweep(config, f"dgemm-{variant}", vsizes, "warm")
            trajectories.append(traj)
            by_variant[variant] = ms
        result.tables.append(_points_table(
            "dgemm points",
            [m for ms in by_variant.values() for m in ms],
        ))
        result.artifacts["f6_dgemm.svg"] = svg_plot(
            model, trajectories=trajectories, title="Roofline: dgemm variants"
        )
        tiled = by_variant["tiled"][-1]
        naive = by_variant["naive"][-1]
        util = tiled.performance / model.peak_flops
        result.check(
            "register-tiled dgemm reaches >= 60% of the compute peak",
            util >= 0.60, f"{util:.0%} of peak",
        )
        result.check(
            "tiled dgemm outperforms naive dgemm",
            tiled.performance > naive.performance,
            f"{tiled.performance / naive.performance:.1f}x",
        )
        result.check(
            "tiled dgemm is compute-bound at the largest size",
            tiled.intensity >= model.ridge_intensity,
            f"I={tiled.intensity:.2f} vs ridge {model.ridge_intensity:.2f}",
        )
        return result


class FftRoofline(Experiment):
    """F7: FFT — intermediate intensity growing with log n."""

    id = "F7"
    title = "Roofline: FFT"
    paper_item = "FFT roofline figure"

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        result = self.new_result()
        machine = config.machine()
        l3 = machine.spec.hierarchy.l3.size_bytes
        sizes = fft_sizes(machine.spec)
        model = build_roofline(machine, cores=(0,), trips=4096,
                               stream_elements=round_to(2 * l3 // 8, 64))
        warm_t, warm_m = _sweep(config, "fft", sizes, "warm")
        cold_t, cold_m = _sweep(config, "fft", sizes, "cold")
        result.tables.append(_points_table("fft points", warm_m + cold_m))
        result.artifacts["f7_fft.svg"] = svg_plot(
            model, trajectories=[warm_t, cold_t], title="Roofline: FFT"
        )
        daxpy_like = 2 / 24
        result.check(
            "FFT intensity exceeds BLAS-1 streaming intensity",
            all(m.intensity > daxpy_like for m in cold_m),
        )
        result.check(
            "warm cache-resident FFT achieves higher intensity than cold",
            warm_m[0].intensity > cold_m[0].intensity,
        )
        return result


class ParallelRoofline(Experiment):
    """F8: multithreaded rooflines — dgemm scales, daxpy saturates."""

    id = "F8"
    title = "Parallel rooflines (1 to all cores)"
    paper_item = "multithreaded roofline figures"

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        result = self.new_result()
        machine = config.machine()
        hier = machine.spec.hierarchy
        ncores = machine.topology.total_cores
        thread_counts = [1, 2, ncores]
        daxpy_n = round_to(4 * hier.l3.size_bytes // 16, 32 * ncores)
        gemm_n = 128
        table = Table(
            "Scaling with threads",
            ["kernel", "threads", "P [Gflop/s]", "speedup vs 1t"],
        )
        speedups = {}
        points = []
        for kernel, n, protocol in (
            ("daxpy", daxpy_n, "cold"),
            ("dgemm-tiled", gemm_n, "warm"),
        ):
            base = None
            for threads in thread_counts:
                cores = tuple(machine.topology.first_cores(threads))
                m = config.measure(kernel, n, protocol=protocol,
                                   reps=1, cores=cores)
                if base is None:
                    base = m.performance
                speedup = m.performance / base
                speedups[(kernel, threads)] = speedup
                table.add(kernel, threads,
                          f"{m.performance / 1e9:.2f}", f"{speedup:.2f}x")
                points.append(KernelPoint.from_measurement(
                    m, series=f"{kernel} {threads}t"))
        result.tables.append(table)
        model_all = build_roofline(
            machine, cores=machine.topology.first_cores(ncores),
            widths=[machine.ports.max_simd_width], trips=4096,
            stream_elements=round_to(2 * hier.l3.size_bytes // 8, 64 * ncores),
            include_thread_scaling=True,
        )
        result.artifacts["f8_parallel.svg"] = svg_plot(
            model_all, points=points, title="Parallel roofline"
        )
        result.check(
            "compute-bound dgemm scales with cores",
            speedups[("dgemm-tiled", ncores)] >= 0.5 * ncores,
            f"{speedups[('dgemm-tiled', ncores)]:.1f}x on {ncores} cores",
        )
        result.check(
            "memory-bound daxpy saturates well below linear scaling",
            speedups[("daxpy", ncores)] <= 0.75 * ncores,
            f"{speedups[('daxpy', ncores)]:.1f}x on {ncores} cores",
        )
        result.note(
            "Memory-bound kernels gain only the bandwidth headroom one core "
            "cannot reach alone; the paper sees the same rigid-point shift "
            "when moving from one thread to a socket."
        )
        return result
