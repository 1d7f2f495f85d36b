"""ERT-style ceiling discovery: measure a machine's bandwidth hierarchy.

The Empirical Roofline Toolkit establishes a platform's ceilings by
*measurement*, not datasheet: one parameterised kernel (see
:class:`~repro.kernels.ert.ErtKernel`) is timed over a grid of
working-set sizes and flops-per-element counts.  Working sets sized for
each cache level expose that level's sustainable bandwidth; a cache-
resident set with a long flop chain exposes the compute roof.

Discovery here runs the whole grid through the sweep executor, so it is
parallel across points, content-addressed-cached, and span-profiled
exactly like every other measurement in the repository.  Prefetchers
are disabled for the discovery run: per-level traffic attribution is
then deterministic and line-exact (``L2_LINES_IN`` contains no
speculative fills), which is what makes the discovered ceilings
bit-reproducible across serial, parallel, and cached execution — a
property the test suite pins.

Each level's ceiling is the **best observed rate**: the maximum over
all grid points of that level's measured bytes divided by the point's
runtime.  A level that a small working set never touches still gets a
ceiling from the larger sets that sweep through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..machine.machine import MachineSpec
from ..machine.ref import MachineRef
from ..measure.runner import Measurement
from ..sweep.executor import SweepRun, run_plan
from ..sweep.plan import SweepPlan
from ..units import format_bandwidth, format_flops

#: hierarchy levels in distance order, nearest first
LEVELS: Tuple[str, ...] = ("L1", "L2", "L3", "DRAM")

#: default flops-per-element grid: 1 keeps the probe bandwidth-bound,
#: the larger counts walk it across the ridge to the compute roof
DEFAULT_FLOP_COUNTS: Tuple[int, ...] = (1, 2, 4, 8, 16, 64)


@dataclass(frozen=True)
class DiscoveredCeiling:
    """One measured ceiling and the grid point that achieved it."""

    #: hierarchy level (``"L1"``/``"L2"``/``"L3"``/``"DRAM"``)
    level: str
    #: best observed rate for the level, bytes/s
    bytes_per_second: float
    #: problem size of the winning grid point (doubles)
    n: int
    #: flops-per-element of the winning grid point
    flops_per_elem: int
    #: the winning point's working set, bytes
    working_set_bytes: int

    def label(self) -> str:
        return f"{self.level} ERT ({format_bandwidth(self.bytes_per_second)})"


@dataclass(frozen=True)
class ErtCeilings:
    """Everything one discovery run measured."""

    #: machine recipe the grid ran on (prefetchers disabled)
    machine: MachineRef
    #: best observed compute rate across the grid, flops/s
    compute_flops_per_second: float
    #: the winning compute point's (n, flops_per_elem)
    compute_point: Tuple[int, int]
    #: per-level ceilings keyed by level name, every level present
    levels: Dict[str, DiscoveredCeiling]
    #: the full measured grid, in plan order
    measurements: Tuple[Measurement, ...]
    #: sweep executor statistics (cache hits, wall time, jobs)
    sweep_stats: Optional[object] = None
    #: the grid sweep's compile-tier / nest-executor counters
    plan_cache: Dict[str, float] = field(default_factory=dict)

    def compute_label(self) -> str:
        n, fpe = self.compute_point
        return (f"ERT peak ({format_flops(self.compute_flops_per_second)}, "
                f"{fpe} flops/elem)")

    def ordered(self) -> List[DiscoveredCeiling]:
        """Ceilings nearest-level first (L1, L2, L3, DRAM)."""
        return [self.levels[level] for level in LEVELS]


def ert_working_sets(spec: MachineSpec) -> Dict[str, int]:
    """Target working-set bytes per level for a machine spec.

    Mid-capacity targets keep each set unambiguously resident at its
    level: half of L1; halfway between adjacent capacities for L2/L3;
    four times L3 so DRAM is continuously streamed.
    """
    h = spec.hierarchy
    l1, l2, l3 = h.l1.size_bytes, h.l2.size_bytes, h.l3.size_bytes
    return {
        "L1": l1 // 2,
        "L2": (l1 + l2) // 2,
        "L3": (l2 + l3) // 2,
        "DRAM": 4 * l3,
    }


def _ws_elements(ws_bytes: int) -> int:
    # multiple of 64 elements: divides into whole vectors at any SIMD
    # width and any core count the executor partitions over
    return max(ws_bytes // 8 // 64 * 64, 64)


def resolve_machine_ref(machine) -> MachineRef:
    """Coerce a preset name or :class:`MachineRef` to a ref."""
    if isinstance(machine, MachineRef):
        return machine
    if isinstance(machine, str):
        return MachineRef.of(machine)
    raise ConfigurationError(
        f"machine must be a preset name or MachineRef, got {type(machine)!r}"
    )


def ert_plan(machine, flop_counts: Sequence[int] = DEFAULT_FLOP_COUNTS,
             sweeps: int = 2, reps: int = 2,
             cores: Tuple[int, ...] = (0,)) -> SweepPlan:
    """The discovery grid as a sweep plan (prefetchers disabled).

    Bandwidth points run every level's working set at the minimum flop
    count; compute points run the remaining counts on the L1-resident
    set, where memory can never be the limiter.
    """
    ref = resolve_machine_ref(machine).with_overrides(prefetch_enabled=False)
    working = ert_working_sets(ref.spec())
    counts = sorted(set(flop_counts))
    if not counts:
        raise ConfigurationError("ert: need at least one flop count")
    plan = SweepPlan()
    bandwidth_sizes = [_ws_elements(working[level]) for level in LEVELS]
    plan.add_sweep(ref, "ert", bandwidth_sizes, protocol="warm", reps=reps,
                   cores=cores,
                   kernel_args={"flops_per_elem": counts[0],
                                "sweeps": sweeps})
    for fpe in counts[1:]:
        plan.add_sweep(ref, "ert", [bandwidth_sizes[0]], protocol="warm",
                       reps=reps, cores=cores,
                       kernel_args={"flops_per_elem": fpe,
                                    "sweeps": sweeps})
    return plan


def _best_level_rates(measurements: Iterable[Measurement],
                      sweeps: int) -> Dict[str, DiscoveredCeiling]:
    best: Dict[str, DiscoveredCeiling] = {}
    for m in measurements:
        if not m.level_bytes or m.runtime_seconds <= 0:
            continue
        fpe = m.true_flops // max(m.n * sweeps, 1)
        for level in LEVELS:
            rate = m.level_bytes.get(level, 0.0) / m.runtime_seconds
            if rate <= 0:
                continue
            if level not in best or rate > best[level].bytes_per_second:
                best[level] = DiscoveredCeiling(
                    level=level,
                    bytes_per_second=rate,
                    n=m.n,
                    flops_per_elem=fpe,
                    working_set_bytes=8 * m.n,
                )
    return best


def discover_ceilings(machine="snb",
                      flop_counts: Sequence[int] = DEFAULT_FLOP_COUNTS,
                      sweeps: int = 2, reps: int = 2,
                      cores: Tuple[int, ...] = (0,),
                      jobs: Optional[int] = None,
                      cache=None) -> ErtCeilings:
    """Measure a machine's bandwidth hierarchy and compute roof.

    ``machine`` is a preset name or :class:`MachineRef`; ``jobs`` and
    ``cache`` pass straight to the sweep executor, so
    discovery fans out over workers and replays from the
    content-addressed cache.
    """
    ref = resolve_machine_ref(machine)
    plan = ert_plan(ref, flop_counts=flop_counts, sweeps=sweeps,
                    reps=reps, cores=cores)
    run: SweepRun = run_plan(plan, jobs=jobs, cache=cache)
    measurements = tuple(run.measurements)

    best_levels = _best_level_rates(measurements, sweeps)
    missing = [level for level in LEVELS if level not in best_levels]
    if missing:
        raise ConfigurationError(
            f"ert discovery on {ref.describe()} saw no traffic at "
            f"{missing}; the working-set grid cannot size this hierarchy"
        )
    compute_best = max(measurements, key=lambda m: m.performance)
    return ErtCeilings(
        machine=plan.points[0].machine,
        compute_flops_per_second=compute_best.performance,
        compute_point=(compute_best.n,
                       compute_best.true_flops
                       // max(compute_best.n * sweeps, 1)),
        levels={level: best_levels[level] for level in LEVELS},
        measurements=measurements,
        sweep_stats=run.stats,
        plan_cache=run.plan_cache,
    )
