"""Named measurement grids: the paper's figure sweeps as SweepPlans.

The roofline experiments (F4-F7) each sweep one kernel family across
working-set sizes chosen relative to the machine's cache capacities.
This module holds both halves reusably:

* the *size selectors* (``daxpy_sizes`` & friends), shared with
  :mod:`repro.experiments.rooflines` so the ``repro sweep --grid f4``
  CLI and the F4 experiment enumerate the exact same grid;
* the *grids* (``GRIDS``): each figure's kernel and protocol sweeps,
  which :func:`make_grid` turns into the full plan for a machine ref
  through :func:`build_plan`, the plan builder of every front end.

Sizes depend only on a machine's static spec: :func:`make_grid` reads
the ref's :meth:`~repro.machine.ref.MachineRef.spec` and builds no
machine, and the experiments pass their live machine's ``spec``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, SweepError
from ..machine.machine import MachineSpec
from ..machine.ref import MachineRef
from ..units import round_to
from .plan import SweepPlan

#: dgemm variants swept by the F6 figure, slowest first
DGEMM_VARIANTS = ("naive", "ikj", "tiled")


def daxpy_sizes(spec: MachineSpec) -> List[int]:
    """F4 grid: working sets straddling L2, L3, and DRAM residency."""
    hier = spec.hierarchy
    targets = [hier.l1.size_bytes // 2, hier.l2.size_bytes // 2,
               hier.l3.size_bytes // 2, 2 * hier.l3.size_bytes,
               6 * hier.l3.size_bytes]
    return sorted({round_to(t // 16, 32) for t in targets})


def dgemv_sizes(spec: MachineSpec) -> List[int]:
    """F5 grid: matrix orders whose footprint brackets the L3."""
    hier = spec.hierarchy
    targets = [hier.l2.size_bytes, hier.l3.size_bytes // 2,
               2 * hier.l3.size_bytes]
    return sorted({round_to(int(math.sqrt(t / 8)), 8) for t in targets})


def dgemm_sizes(spec: MachineSpec) -> List[int]:
    """F6 grid: small orders — dgemm is compute-bound, not capacity-probing."""
    return [32, 64, 96, 128]


def fft_sizes(spec: MachineSpec) -> List[int]:
    """F7 grid: power-of-two transform lengths up to 2x L3 residency."""
    l3 = spec.hierarchy.l3.size_bytes
    max_exp = int(math.log2(max(2 * l3 // 24, 1 << 10)))
    return [1 << e for e in range(8, max_exp + 1, 2)]


#: named grids accepted by ``repro sweep --grid``: each figure's size
#: selector and its (kernel, comma-separated protocols) sweeps, in plan
#: order
GRIDS: Dict[str, Tuple[Callable[[MachineSpec], List[int]],
                       Tuple[Tuple[str, str], ...]]] = {
    "f4": (daxpy_sizes, (("daxpy", "cold,warm"),)),
    "f5": (dgemv_sizes, (("dgemv-row", "cold"), ("dgemv-col", "cold"))),
    "f6": (dgemm_sizes, tuple((f"dgemm-{variant}", "warm")
                              for variant in DGEMM_VARIANTS)),
    "f7": (fft_sizes, (("fft", "warm,cold"),)),
}


def make_grid(name: str, ref: MachineRef, reps: int = 2) -> SweepPlan:
    """Build a named grid's plan for ``ref``."""
    try:
        selector, sweeps = GRIDS[name.lower()]
    except KeyError as exc:
        raise SweepError(
            f"unknown grid {name!r}; known: {sorted(GRIDS)}"
        ) from exc
    sizes = selector(ref.spec())
    plan = SweepPlan()
    for kernel, protocols in sweeps:
        plan.extend(build_plan(ref, kernel=kernel, sizes=sizes,
                               protocol=protocols, reps=reps))
    return plan


def build_plan(ref: MachineRef, *, kernel: Optional[str] = None,
               sizes: Optional[Sequence[int]] = None,
               grid: Optional[str] = None, protocol: str = "cold",
               reps: int = 2, threads: int = 1) -> SweepPlan:
    """A named figure grid, or ``kernel`` over ``sizes`` once per
    comma-separated ``protocol`` on the first ``threads`` cores."""
    if grid:
        return make_grid(grid, ref, reps=reps)
    if not kernel or not sizes:
        raise ConfigurationError(
            "sweep needs either --grid or KERNEL --sizes N,..")
    cores = ref.cores(threads)
    plan = SweepPlan()
    for name in protocol.split(","):
        plan.add_sweep(ref, kernel, sizes, protocol=name, reps=reps,
                       cores=cores)
    return plan
