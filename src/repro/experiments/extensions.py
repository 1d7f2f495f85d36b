"""Experiment E1: cache-aware roofline (the extension direction).

The paper's single-DRAM-roof model cannot place cache-resident kernels
against a meaningful bandwidth bound; its natural extension (Ilic et
al., IEEE CAL 2014) measures one bandwidth ceiling per memory level.
We build that model with the same measured-microbenchmark discipline
and verify that warm working-set sweeps of daxpy land under the roof of
the level they reside in.
"""

from __future__ import annotations

from ..kernels.blas1 import Daxpy
from ..kernels.spmv import Spmv
from ..machine.ref import MachineRef
from ..roofline.cache_aware import (
    build_cache_aware_roofline,
    level_bandwidth_map,
    served_from,
)
from ..roofline.plot_svg import svg_plot
from ..roofline.point import KernelPoint
from ..units import format_bandwidth, format_bytes, round_to
from .base import Experiment, ExperimentConfig, ExperimentResult, Table


class CacheAwareRoofline(Experiment):
    """E1: per-level bandwidth ceilings and level attribution."""

    id = "E1"
    title = "Cache-aware roofline (extension)"
    paper_item = "extension: hierarchical bandwidth ceilings"

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        result = self.new_result()
        machine = config.machine()
        hier = machine.spec.hierarchy
        model = build_cache_aware_roofline(machine, trips=8192, sweeps=8)
        levels = level_bandwidth_map(model)
        table = Table(
            "Measured per-level read bandwidth (one core)",
            ["level", "bandwidth"],
        )
        for level in ("L1", "L2", "L3", "DRAM"):
            table.add(level, format_bandwidth(levels[level]))
        result.tables.append(table)

        # warm daxpy at working sets resident in each level
        targets = {
            "L2": (hier.l1.size_bytes + hier.l2.size_bytes) // 2,
            "L3": (hier.l2.size_bytes + hier.l3.size_bytes) // 2,
            "DRAM": 4 * hier.l3.size_bytes,
        }
        placement = Table(
            "Warm daxpy placement against the layered roofs",
            ["working set", "n", "P [Gflop/s]", "served from (model)"],
        )
        points = []
        attribution = {}
        for level, footprint in targets.items():
            n = round_to(footprint // 16, 32)
            protocol = "warm" if level != "DRAM" else "cold"
            m = config.measure("daxpy", n, protocol=protocol)
            point = KernelPoint(
                f"daxpy {level}-resident",
                # judge throughput against each level's roof at the
                # kernel's *compulsory* intensity (2 flops / 24 bytes):
                # measured warm Q is near zero by design
                intensity=2.0 / 24.0,
                performance=m.performance,
                series=f"daxpy {level}",
            )
            points.append(point)
            attribution[level] = served_from(model, point)
            placement.add(format_bytes(Daxpy().footprint_bytes(n)), n,
                          f"{m.performance / 1e9:.2f}", attribution[level])
        result.tables.append(placement)
        result.artifacts["e1_cache_aware.svg"] = svg_plot(
            model, points=points, title="Cache-aware roofline"
        )

        ordered = [levels[l] for l in ("L1", "L2", "L3", "DRAM")]
        result.check(
            "bandwidth ceilings are ordered L1 >= L2 >= L3 > DRAM",
            all(a >= 0.95 * b for a, b in zip(ordered, ordered[1:]))
            and ordered[2] > ordered[3],
        )
        result.check(
            "DRAM-resident daxpy is attributed to the DRAM roof",
            attribution["DRAM"] == "DRAM",
        )
        result.check(
            "cache-resident daxpy exceeds the DRAM roof (needs the "
            "layered model to be classified)",
            attribution["L2"] in ("L1", "L2", "L3")
            and attribution["L2"] != "DRAM",
            str(attribution),
        )
        result.note(
            "The single-roof model would show the warm points floating in "
            "no-man's-land above the DRAM roof; the layered ceilings give "
            "each one a level-specific bound, extending the paper's "
            "methodology to cache-resident working sets."
        )
        return result


class SpmvRoofline(Experiment):
    """E2: sparse matrix-vector multiply on the roofline (extension).

    SpMV's intensity is pinned near (2k+1)/(16k+24) flops/byte by its
    value+index streams, but its *performance* depends on gather
    locality: a narrow band keeps x cache-resident, a matrix-wide band
    turns every gather into a long-latency access.  The roofline shows
    two kernels at the same intensity with very different heights — the
    situation the paper's "room for improvement at fixed intensity"
    reading is about.
    """

    id = "E2"
    title = "Roofline: SpMV (gather locality, extension)"
    paper_item = "extension: sparse kernel with data-dependent access"

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        from ..roofline.builder import build_roofline
        from ..roofline.point import KernelPoint

        result = self.new_result()
        # a further-shrunk machine keeps the x-vector-misses-L3 regime
        # reachable with an affordable gather count
        ref = MachineRef.of("snb-ep", scale=config.scale / 4)
        machine = ref.build()
        l3 = machine.spec.hierarchy.l3.size_bytes
        l2 = machine.spec.hierarchy.l2.size_bytes
        row_nnz = 4
        # square matrix: 8n-byte x spans 2 L3s so wide gathers miss,
        # while row_nnz*n gathers revisit each x line many times
        n = round_to(2 * l3 // 8, 64)
        model = build_roofline(
            machine, cores=(0,), trips=2048,
            stream_elements=round_to(2 * l3 // 8, 64),
            bandwidth_methods=("memset-nt", "read"),
        )
        table = Table(
            f"SpMV at n={n} ({row_nnz} nnz/row), cold caches",
            ["gather band", "I [F/B]", "P [Gflop/s]", "Q / compulsory"],
        )
        points = []
        results = {}
        narrow_band = max(l2 // 16, 64)  # window well inside L2
        for label, bandwidth in (("narrow (cache-resident)", narrow_band),
                                 ("matrix-wide", 1 << 30)):
            kernel = Spmv(row_nnz=row_nnz, bandwidth=bandwidth)
            m = config.measure(
                "spmv", n, protocol="cold", machine=ref,
                kernel_args={"row_nnz": row_nnz, "bandwidth": bandwidth},
            )
            results[label] = m
            table.add(label, f"{m.intensity:.4f}",
                      f"{m.performance / 1e9:.3f}",
                      f"{m.traffic_ratio:.2f}")
            points.append(KernelPoint.from_measurement(
                m, series=f"spmv {label}"))
        result.tables.append(table)
        result.artifacts["e2_spmv.svg"] = svg_plot(
            model, points=points, title="Roofline: SpMV gather locality"
        )
        narrow = results["narrow (cache-resident)"]
        wide = results["matrix-wide"]
        analytic = kernel.operational_intensity(n)
        result.check(
            "narrow-band intensity matches the analytic value within 40%",
            abs(narrow.intensity - analytic) / analytic < 0.40,
            f"measured {narrow.intensity:.3f} vs analytic {analytic:.3f}",
        )
        result.check(
            "wide gathers inflate traffic well beyond the narrow band",
            wide.traffic_bytes > 1.5 * narrow.traffic_bytes,
            f"{wide.traffic_bytes / narrow.traffic_bytes:.2f}x",
        )
        result.check(
            "gather locality moves performance",
            narrow.performance > 1.3 * wide.performance,
            f"{narrow.performance / wide.performance:.2f}x",
        )
        result.check(
            "SpMV is deeply memory-bound",
            narrow.intensity < 0.5 * model.ridge_intensity,
        )
        return result
