#!/usr/bin/env python3
"""Comparing computing platforms with rooflines (a use the paper lists).

Builds measured rooflines for a Sandy Bridge-EP socket (AVX, no FMA)
and a Haswell-class socket (dual FMA), then runs the same two kernels
on both.  The plots show what the spec sheets hide: the FMA machine
doubles the compute roof but moves its ridge point right, so the
memory-bound kernel gains nothing while dgemm nearly doubles.

Writes one SVG per platform into `examples/output/`.

Run:  python examples/compare_platforms.py
"""

import os

from repro import make_machine
from repro.kernels import Daxpy, Dgemm
from repro.measure import measure_kernel
from repro.roofline import KernelPoint, build_roofline, save_svg, svg_plot


def main() -> None:
    out_dir = os.path.join(os.path.dirname(__file__), "output")
    os.makedirs(out_dir, exist_ok=True)

    results = {}
    for name in ("snb-ep", "hsw-ep"):
        machine = make_machine(name, scale=0.125)
        model = build_roofline(machine, cores=(0,))
        print(model)
        points = []
        l3 = machine.spec.hierarchy.l3.size_bytes
        daxpy_n = (4 * l3 // 16 // 32) * 32
        # nu=3 gives 12 accumulator chains: enough to cover both FMA
        # ports at 5-cycle latency on the Haswell-class machine
        gemm = Dgemm(variant="tiled", mu=4, nu=3)
        for kernel, n, protocol in ((Daxpy(), daxpy_n, "cold"),
                                    (gemm, 96, "warm")):
            m = measure_kernel(machine, kernel, n, protocol=protocol, reps=1)
            points.append(KernelPoint.from_measurement(m))
            results[(machine.spec.name, kernel.name)] = m.performance
            print(f"  {kernel.name:12s} P = {m.performance / 1e9:6.2f} Gflop/s"
                  f"  I = {m.intensity:.3f} F/B")
        path = os.path.join(out_dir, f"roofline_{machine.spec.name}.svg")
        save_svg(svg_plot(model, points=points,
                          title=f"Roofline: {machine.spec.name}"), path)
        print(f"  -> {path}\n")

    (snb_daxpy, snb_gemm), (hsw_daxpy, hsw_gemm) = (
        [v for (m, _k), v in results.items() if m.startswith("snb")],
        [v for (m, _k), v in results.items() if m.startswith("hsw")],
    )
    print("Cross-platform speedups (HSW/FMA over SNB):")
    print(f"  dgemm-tiled : {hsw_gemm / snb_gemm:.2f}x "
          f"(compute-bound, tracks the doubled FMA roof)")
    print(f"  daxpy       : {hsw_daxpy / snb_daxpy:.2f}x "
          f"(memory-bound, tracks bandwidth — FMA is irrelevant)")


if __name__ == "__main__":
    main()
