"""Analytic W/Q oracles for the kernel registry.

Checks every registry kernel's *measured* work and traffic — obtained
through the full two-run measurement methodology — against values
derived from an independent model:

* an **oracle machine** whose every cache level is larger than the
  kernel footprints under test.  In that regime the expected counters
  have a closed form: a cold kernel's DRAM reads are exactly its
  first-touch lines (compulsory misses incl. RFO), nothing it dirties
  is ever written back inside the measured window, and a warm kernel
  hits L1 on everything except non-temporal stores;
* the :class:`~repro.oracle.refmem.InfiniteCacheMemory` driven by the
  :class:`~repro.oracle.reference.ReferenceInterpreter`, which
  reproduces those counters — including the documented cold-cache FP
  *overcount artifact* (reissued dependent ops, the paper's
  experiment F2) — without any of the fast path's machinery;
* literal closed-form traffic expressions for the streaming kernels
  (``CLOSED_FORM_Q_COLD``), pinned as numbers so a regression in
  either the model or the measurement stack cannot hide.

With prefetchers **off**, measured W and Q must equal the model
exactly.  With prefetchers **on**, exactness is deliberately not
required — prefetch traffic is genuinely nondeterministic-looking
(training state) — but W must stay between the true flop count and the
prefetch-off expectation, and Q must stay between the compulsory
expectation and a documented overfetch allowance.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..kernels.base import CodegenCaps
from ..kernels.registry import make_kernel
from ..machine.machine import Machine
from ..machine.presets import make_machine
from ..measure.runner import measure_kernel
from ..memory.allocator import Allocation
from ..pmu.events import FP_EVENT_LANES_F64
from ..units import KIB
from .refmem import InfiniteCacheMemory
from .reference import ReferenceInterpreter

#: problem size per kernel, chosen so every footprint fits well inside
#: the oracle machine's caches (the regime where the model is exact)
ORACLE_SIZES: Dict[str, int] = {
    "daxpy": 256, "triad": 256, "triad-nt": 256, "dot": 256,
    "scale": 256, "sum": 256, "strided-sum": 256, "read": 256,
    "memset": 256, "memset-nt": 256, "memcpy": 256, "memcpy-nt": 256,
    "dgemv-row": 64, "dgemv-col": 64,
    "dgemm-naive": 16, "dgemm-ikj": 16, "dgemm-blocked": 16,
    "dgemm-tiled": 16,
    "fft": 64, "spmv": 64, "spmv-wide": 64, "stencil3": 256,
    "ert": 256,
}

#: closed-form measured cold traffic (prefetch off) for the streaming
#: kernels: 64-byte lines first-touched by the measured pass — reads
#: plus RFO plus non-temporal lines, no writebacks (caches hold all
#: dirtied lines for the whole window).  Byte counts, exact.
CLOSED_FORM_Q_COLD: Dict[str, Callable[[int], int]] = {
    "read": lambda n: 8 * n,             # stream a
    "sum": lambda n: 8 * n,              # stream a
    "scale": lambda n: 16 * n,           # read a + RFO b
    "daxpy": lambda n: 16 * n,           # read x + RFO y
    "dot": lambda n: 16 * n,             # read x + read y
    "triad": lambda n: 24 * n,           # read b,c + RFO a
    "triad-nt": lambda n: 24 * n,        # read b,c + NT a
    "memset": lambda n: 8 * n,           # RFO only
    "memset-nt": lambda n: 8 * n,        # NT lines only
    "memcpy": lambda n: 16 * n,          # read src + RFO dst
    "memcpy-nt": lambda n: 16 * n,       # read src + NT dst
    "ert": lambda n: 8 * n,              # read a; stores hit the read lines
}

#: footprint ceiling for oracle runs — ¼ of each cache level, so a
#: contiguous working set can never exceed a set's associativity
_FOOTPRINT_LIMIT = 64 * KIB


def oracle_machine() -> Machine:
    """Single-core machine with uniformly large caches and zero noise.

    Every level is 256 KiB/16-way (256 sets, power of two), so any
    kernel footprint under :data:`_FOOTPRINT_LIMIT` is conflict-free
    at every level and the infinite-cache model is exact.  Kept as
    small as that argument allows: the honest cold protocol sweeps a
    buster of twice the aggregate capacity per measurement window, so
    oracle wall time scales with cache size.

    The geometry lives in :func:`repro.machine.presets.oracle_spec`
    (registered as the ``oracle`` preset) so sweeps and
    ``repro.analyze`` can address the same machine by recipe.
    """
    return make_machine("oracle")


def oracle_n(kernel_name: str) -> int:
    """The standard oracle problem size for a registry kernel."""
    return ORACLE_SIZES.get(kernel_name, 256)


# ----------------------------------------------------------------------
# model-side expectations
# ----------------------------------------------------------------------
def _synthetic_layout(program) -> Dict[str, Allocation]:
    """Page-aligned, widely separated buffer placement.

    First-touch line counts only depend on layout through line
    alignment and non-overlap, both of which the real loader also
    guarantees — so the model may pick its own bases.
    """
    layout = {}
    for i, name in enumerate(sorted(program.buffers)):
        layout[name] = Allocation(name, (i + 1) << 23,
                                  program.buffers[name], 0)
    return layout


def _counted_flops(counters: Dict[str, int]) -> float:
    """Mirror of ``flops_from_session`` over reference counters."""
    return float(sum(lanes * counters.get(event, 0)
                     for event, lanes in FP_EVENT_LANES_F64))


def _mark_resident(memory: InfiniteCacheMemory, layout) -> None:
    """Init surrogate: every buffer line resident and dirty (the init
    pass stores to each line of each buffer)."""
    for alloc in layout.values():
        first = alloc.base >> 6
        last = (alloc.base + alloc.size - 1) >> 6
        for line in range(first, last + 1):
            memory.resident.add(line)
            memory.dirty.add(line)


def expected_w_q(kernel_name: str, n: int,
                 protocol: str) -> Tuple[float, float]:
    """Model-expected measured (W flops, Q bytes), prefetchers off."""
    machine = oracle_machine()
    caps = CodegenCaps.from_machine(machine)
    kernel = make_kernel(kernel_name)
    program = kernel.build(n, caps, rank=0, nranks=1)
    layout = _synthetic_layout(program)
    dram = machine.spec.hierarchy.dram
    bpc = min(dram.per_core_bytes_per_cycle, dram.bytes_per_cycle_total)

    memory = InfiniteCacheMemory()
    interp = ReferenceInterpreter(machine.spec, memory)
    if protocol == "warm":
        _mark_resident(memory, layout)
        interp.execute(program, layout, bpc)     # warmup pass
        memory.reset_counters()
    elif protocol != "cold":
        raise ValueError(f"unknown protocol {protocol!r}")
    result = interp.execute(program, layout, bpc)
    work = _counted_flops(result.counters)
    traffic = 64.0 * (memory.dram_read_lines + memory.dram_write_lines)
    return work, traffic


def expected_level_bytes(kernel_name: str, n: int,
                         protocol: str) -> Dict[str, float]:
    """Model-expected per-level traffic in bytes, prefetchers off.

    Uses exactly the counter derivations the measurement stack uses
    (line-granular: 64 bytes per counted line event), so a hierarchical
    roofline's per-level intensities can be pinned against it:

    * ``L1``   — every demand access resolved by the hierarchy
      (``l1_accesses`` x line size),
    * ``L2``   — lines filled into L1 (``l1_replacement``),
    * ``L3``   — lines filled into L2 (``l2_lines_in``),
    * ``DRAM`` — IMC CAS reads+writes, identical to
      :func:`expected_w_q`'s Q.
    """
    machine = oracle_machine()
    caps = CodegenCaps.from_machine(machine)
    kernel = make_kernel(kernel_name)
    program = kernel.build(n, caps, rank=0, nranks=1)
    layout = _synthetic_layout(program)
    dram = machine.spec.hierarchy.dram
    bpc = min(dram.per_core_bytes_per_cycle, dram.bytes_per_cycle_total)

    memory = InfiniteCacheMemory()
    interp = ReferenceInterpreter(machine.spec, memory)
    if protocol == "warm":
        _mark_resident(memory, layout)
        interp.execute(program, layout, bpc)     # warmup pass
        memory.reset_counters()
    elif protocol != "cold":
        raise ValueError(f"unknown protocol {protocol!r}")
    result = interp.execute(program, layout, bpc)
    c = result.counters
    return {
        "L1": 64.0 * c.get("l1_accesses", 0),
        "L2": 64.0 * c.get("l1_replacement", 0),
        "L3": 64.0 * c.get("l2_lines_in", 0),
        "DRAM": 64.0 * (memory.dram_read_lines + memory.dram_write_lines),
    }


# ----------------------------------------------------------------------
# measurement-side checks
# ----------------------------------------------------------------------
def check_kernel(kernel_name: str, n: Optional[int] = None) -> List[str]:
    """Check one kernel across cold/warm x prefetch on/off.

    Returns a list of human-readable problems (empty = conformant).
    """
    n = n if n is not None else oracle_n(kernel_name)
    problems: List[str] = []
    kernel = make_kernel(kernel_name)
    if kernel.footprint_bytes(n) > _FOOTPRINT_LIMIT:
        return [f"{kernel_name}: footprint {kernel.footprint_bytes(n)} "
                f"exceeds the oracle limit {_FOOTPRINT_LIMIT}; the "
                f"big-cache model would not be exact — lower n"]

    for protocol in ("cold", "warm"):
        exp_w, exp_q = expected_w_q(kernel_name, n, protocol)

        # ---- prefetchers off: the model is exact ----
        machine = oracle_machine()
        machine.prefetch_control.disable_all()
        meas = measure_kernel(machine, make_kernel(kernel_name), n,
                              protocol=protocol, reps=1)
        if abs(meas.work_flops - exp_w) > 0.5:
            problems.append(
                f"{kernel_name} {protocol}/off: W={meas.work_flops} "
                f"expected {exp_w}"
            )
        if abs(meas.traffic_bytes - exp_q) > 0.5:
            problems.append(
                f"{kernel_name} {protocol}/off: Q={meas.traffic_bytes} "
                f"expected {exp_q}"
            )
        if protocol == "warm" and abs(meas.work_flops
                                      - meas.true_flops) > 0.5:
            # warm runs never miss, so never reissue: W == true W
            problems.append(
                f"{kernel_name} warm/off: W={meas.work_flops} != "
                f"true {meas.true_flops} (unexpected overcount)"
            )
        if protocol == "cold" and kernel_name in CLOSED_FORM_Q_COLD:
            closed = float(CLOSED_FORM_Q_COLD[kernel_name](n))
            if abs(exp_q - closed) > 0.5:
                problems.append(
                    f"{kernel_name} cold: model Q={exp_q} disagrees "
                    f"with closed form {closed}"
                )
            if abs(meas.traffic_bytes - closed) > 0.5:
                problems.append(
                    f"{kernel_name} cold: measured Q="
                    f"{meas.traffic_bytes} != closed form {closed}"
                )

        # ---- prefetchers on: bounded, not exact ----
        machine = oracle_machine()
        machine.prefetch_control.write_msr(0)
        meas_on = measure_kernel(machine, make_kernel(kernel_name), n,
                                 protocol=protocol, reps=1)
        if meas_on.work_flops < meas_on.true_flops - 0.5:
            problems.append(
                f"{kernel_name} {protocol}/on: W={meas_on.work_flops} "
                f"below true {meas_on.true_flops}"
            )
        if meas_on.work_flops > exp_w + 0.5:
            # prefetching can only convert misses into hits, which
            # can only lower the reissue overcount
            problems.append(
                f"{kernel_name} {protocol}/on: W={meas_on.work_flops} "
                f"above prefetch-off expectation {exp_w}"
            )
        if meas_on.traffic_bytes < exp_q - 0.5:
            problems.append(
                f"{kernel_name} {protocol}/on: Q={meas_on.traffic_bytes} "
                f"below compulsory {exp_q}"
            )
        allowance = 2.5 * exp_q + 16384.0
        if meas_on.traffic_bytes > allowance:
            problems.append(
                f"{kernel_name} {protocol}/on: Q={meas_on.traffic_bytes} "
                f"exceeds overfetch allowance {allowance}"
            )
    return problems
