"""Peak memory bandwidth microbenchmarks (paper section 2.2).

Bandwidth is method-dependent, so — like the paper — we take the
maximum over independent checks: a load-only sweep, ``memset`` and
``memcpy`` analogues (write-allocate), their non-temporal variants, and
the STREAM triad.  Reported bandwidth is *application bytes* over time
(the STREAM convention), which is why the non-temporal memset wins on
sockets: it moves one line per line written instead of two.

Multi-threaded runs replicate the paper's discipline: each rank's
buffers are bound to its core's NUMA node (their "run one benchmark
copy per socket and sum" method).  ``bind_memory=False`` reproduces the
unbound anti-pattern the paper warns about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import ConfigurationError
from ..kernels.base import CodegenCaps
from ..kernels.blas1 import StreamTriad
from ..kernels.memops import Memcpy, Memset, ReadStream
from ..machine.machine import Machine
from ..units import median

#: method name -> (kernel factory, application bytes per element)
_METHODS = {
    "read": (ReadStream, 8),
    "memset": (Memset, 8),
    "memset-nt": (lambda: Memset(nt_stores=True), 8),
    "memcpy": (Memcpy, 16),
    "memcpy-nt": (lambda: Memcpy(nt_stores=True), 16),
    "triad": (StreamTriad, 24),
}


@dataclass(frozen=True)
class PeakBandwidthResult:
    """One bandwidth measurement."""

    machine: str
    method: str
    threads: int
    bound: bool
    bytes_per_second: float
    theoretical_bytes_per_second: float

    @property
    def efficiency(self) -> float:
        return self.bytes_per_second / self.theoretical_bytes_per_second


def bandwidth_methods() -> List[str]:
    """Names of the available bandwidth checks."""
    return sorted(_METHODS)


def default_stream_elements(machine: Machine) -> int:
    """A working set several times the aggregate cache capacity (the
    paper streams 0.5 GB; we scale with the machine's caches)."""
    target_bytes = 4 * machine.spec.total_cache_bytes()
    lanes = machine.ports.max_simd_width // 64
    granule = lanes * machine.topology.total_cores * 8
    elements = max(target_bytes // 8, granule)
    return (elements // granule) * granule


def measure_bandwidth(machine: Machine, method: str = "triad",
                      cores: Sequence[int] = (0,), n: Optional[int] = None,
                      reps: int = 3, bind_memory: bool = True) -> PeakBandwidthResult:
    """Measure one bandwidth method on a set of cores."""
    try:
        factory, app_bytes = _METHODS[method]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown bandwidth method {method!r}; known: {bandwidth_methods()}"
        ) from exc
    cores = tuple(cores)
    kernel = factory()
    caps = CodegenCaps.from_machine(machine)
    if n is None:
        n = default_stream_elements(machine)
    kernel.validate_n(n, caps, len(cores))
    jobs = []
    for rank, core_id in enumerate(cores):
        program = kernel.build(n, caps, rank=rank, nranks=len(cores))
        node = machine.topology.node_of_core(core_id) if bind_memory else 0
        jobs.append((machine.load(program, node=node), core_id))
    seconds = []
    for _ in range(reps):
        machine.bust_caches()
        seconds.append(machine.run_parallel(jobs).seconds)
    nodes = (
        len({machine.topology.node_of_core(c) for c in cores})
        if bind_memory else 1
    )
    return PeakBandwidthResult(
        machine=machine.spec.name,
        method=method,
        threads=len(cores),
        bound=bind_memory,
        bytes_per_second=app_bytes * n / median(seconds),
        theoretical_bytes_per_second=machine.spec.theoretical_peak_bandwidth(nodes),
    )


def peak_bandwidth_table(machine: Machine,
                         methods: Optional[Sequence[str]] = None,
                         thread_counts: Optional[Sequence[int]] = None,
                         n: Optional[int] = None,
                         reps: int = 2) -> List[PeakBandwidthResult]:
    """The paper's bandwidth table: methods x thread counts."""
    methods = list(methods) if methods else bandwidth_methods()
    if thread_counts is None:
        thread_counts = [1, machine.topology.total_cores]
    results = []
    for method in methods:
        for threads in thread_counts:
            cores = machine.topology.first_cores(threads)
            results.append(
                measure_bandwidth(machine, method, cores, n=n, reps=reps)
            )
    return results


def best_bandwidth(machine: Machine, cores: Sequence[int],
                   n: Optional[int] = None, reps: int = 2,
                   methods: Optional[Sequence[str]] = None) -> PeakBandwidthResult:
    """Maximum over methods — the roofline's beta for this thread set."""
    methods = list(methods) if methods else bandwidth_methods()
    results = [
        measure_bandwidth(machine, method, cores, n=n, reps=reps)
        for method in methods
    ]
    return max(results, key=lambda r: r.bytes_per_second)
