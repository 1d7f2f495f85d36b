"""Automatic roofline construction: measure a machine, get its model.

This is the paper's headline deliverable — rooflines produced entirely
from measurement, no datasheet numbers: every compute ceiling comes
from the FP-chain microbenchmark at one SIMD width, and every memory
ceiling from the best of the bandwidth checks.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..bench.peakbw import best_bandwidth
from ..bench.peakflops import measure_peak_flops
from ..machine.machine import Machine
from ..units import format_bandwidth, format_flops
from .model import ComputeCeiling, MemoryCeiling, RooflineModel

_WIDTH_NAMES = {64: "scalar", 128: "SSE", 256: "AVX", 512: "AVX-512"}


def build_roofline(machine: Machine, cores: Sequence[int] = (0,),
                   widths: Optional[Sequence[int]] = None,
                   bandwidth_methods: Optional[Sequence[str]] = None,
                   stream_elements: Optional[int] = None,
                   trips: int = 16384,
                   include_thread_scaling: bool = False) -> RooflineModel:
    """Measure ``machine`` and assemble its roofline for ``cores``.

    ``include_thread_scaling`` adds a single-thread compute ceiling
    below the full one (the "no multithreading" tier of the paper's
    layered plots) when ``cores`` spans more than one core.
    """
    cores = tuple(cores)
    if widths is None:
        widths = [w for w in (64, 128, 256, 512)
                  if machine.ports.supports_width(w)]
    compute = []
    for width in widths:
        result = measure_peak_flops(machine, width, cores, trips=trips)
        name = _WIDTH_NAMES.get(width, f"{width}-bit")
        suffix = f", {len(cores)}t" if len(cores) > 1 else ""
        compute.append(ComputeCeiling(
            f"{name}{suffix} ({format_flops(result.flops_per_second)})",
            result.flops_per_second,
        ))
    if include_thread_scaling and len(cores) > 1:
        single = measure_peak_flops(machine, widths[-1], (cores[0],),
                                    trips=trips)
        compute.append(ComputeCeiling(
            f"{_WIDTH_NAMES.get(widths[-1], widths[-1])}, 1t "
            f"({format_flops(single.flops_per_second)})",
            single.flops_per_second,
        ))

    bw = best_bandwidth(machine, cores, n=stream_elements,
                        methods=bandwidth_methods)
    memory = [MemoryCeiling(
        f"DRAM via {bw.method}, {len(cores)}t "
        f"({format_bandwidth(bw.bytes_per_second)})",
        bw.bytes_per_second,
    )]
    label = f"{machine.spec.name} [{len(cores)} thread(s)]"
    return RooflineModel(label, compute, memory)


def theoretical_roofline(machine: Machine, threads: int = 1) -> RooflineModel:
    """Datasheet roofline (no measurement) — the sanity baseline the
    measured model is compared against in the platform table."""
    widths = [w for w in (64, 128, 256, 512)
              if machine.ports.supports_width(w)]
    compute = [
        ComputeCeiling(
            f"{_WIDTH_NAMES.get(w, w)} theoretical",
            machine.spec.theoretical_peak_flops(w, threads),
        )
        for w in widths
    ]
    nodes = max(
        1,
        min(machine.topology.sockets,
            (threads + machine.topology.cores_per_socket - 1)
            // machine.topology.cores_per_socket),
    )
    memory = [MemoryCeiling(
        "DRAM theoretical", machine.spec.theoretical_peak_bandwidth(nodes)
    )]
    return RooflineModel(f"{machine.spec.name} (theoretical)", compute, memory)
