"""Hierarchical roofline: per-cache-level ceilings and intensities.

The single-roofline model compares a kernel's DRAM intensity against
one bandwidth; the hierarchical (cache-aware) extension gives every
level of the memory hierarchy its own roof band and places the kernel
once per level, at intensity ``W / bytes-moved-at-level-k``.  A kernel
sitting under a level's band is limited by that level's bandwidth
*regardless of where its data nominally lives* — the diagnosis style
of the CARM and NERSC hierarchical-roofline work.

Ceilings come from :mod:`repro.roofline.ert` (measured, not
datasheet); per-level kernel traffic comes straight from the
measurement runner's counter deltas (``Measurement.level_bytes``),
which the analytic oracle pins exactly on the oracle machine.

:func:`analyze` is the library's front door: ceilings + kernel sweep +
placement in one call, everything routed through the cached parallel
sweep executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..kernels.registry import resolve_kernel
from ..measure.runner import Measurement
from ..sweep.executor import merge_plan_cache, run_plan
from ..sweep.plan import SweepPlan
from ..units import format_bandwidth
from .ert import (
    DEFAULT_FLOP_COUNTS,
    ErtCeilings,
    LEVELS,
    discover_ceilings,
    resolve_machine_ref,
)
from .export import model_to_dict
from .model import ComputeCeiling, MemoryCeiling, RooflineModel
from .point import KernelPoint, Trajectory


class HierarchicalRoofline:
    """A compute roof plus one measured bandwidth ceiling per level."""

    def __init__(self, name: str, compute: ComputeCeiling,
                 level_ceilings: Dict[str, MemoryCeiling]) -> None:
        missing = [level for level in LEVELS if level not in level_ceilings]
        if missing:
            raise ConfigurationError(
                f"hierarchical roofline {name!r} lacks levels {missing}"
            )
        self.name = name
        self.compute = compute
        self.level_ceilings = {level: level_ceilings[level]
                               for level in LEVELS}

    @classmethod
    def from_ceilings(cls, ceilings: ErtCeilings) -> "HierarchicalRoofline":
        compute = ComputeCeiling(ceilings.compute_label(),
                                 ceilings.compute_flops_per_second)
        level_ceilings = {
            level: MemoryCeiling(d.label(), d.bytes_per_second)
            for level, d in ceilings.levels.items()
        }
        return cls(ceilings.machine.describe(), compute, level_ceilings)

    # ------------------------------------------------------------------
    # per-level queries
    # ------------------------------------------------------------------
    def bandwidth(self, level: str) -> float:
        try:
            return self.level_ceilings[level].bytes_per_second
        except KeyError as exc:
            raise ConfigurationError(
                f"no ceiling for level {level!r}; have {list(LEVELS)}"
            ) from exc

    def ridge(self, level: str) -> float:
        """Intensity where the level's band meets the compute roof."""
        return self.compute.flops_per_second / self.bandwidth(level)

    def attainable(self, intensity: float, level: str = "DRAM") -> float:
        """``min(pi, I x beta_level)`` against one level's band."""
        if intensity <= 0:
            raise ConfigurationError("intensity must be positive")
        return min(self.compute.flops_per_second,
                   intensity * self.bandwidth(level))

    # ------------------------------------------------------------------
    # single-model view (feeds the existing plotters)
    # ------------------------------------------------------------------
    def to_model(self, merge_rel_tol: float = 0.02) -> RooflineModel:
        """A :class:`RooflineModel` with one memory ceiling per level.

        Levels whose bandwidths coincide within ``merge_rel_tol``
        (relative) are merged into one ceiling with a combined label —
        coinciding ridge points would otherwise draw two overlapping
        bands and two overlapping legend labels for the same line.
        """
        groups: List[List[str]] = []
        for level in LEVELS:
            bw = self.bandwidth(level)
            if groups:
                anchor = self.bandwidth(groups[-1][0])
                if abs(bw - anchor) <= merge_rel_tol * anchor:
                    groups[-1].append(level)
                    continue
            groups.append([level])
        memory = []
        for group in groups:
            best = max(self.bandwidth(level) for level in group)
            name = "+".join(group)
            memory.append(MemoryCeiling(
                f"{name} ERT ({format_bandwidth(best)})", best
            ))
        return RooflineModel(self.name, [self.compute], memory)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "compute": {"label": self.compute.label,
                        "flops_per_s": self.compute.flops_per_second},
            "levels": {
                level: {"label": c.label,
                        "bytes_per_s": c.bytes_per_second,
                        "ridge_intensity": self.ridge(level)}
                for level, c in self.level_ceilings.items()
            },
        }


# ----------------------------------------------------------------------
# the flagship entry point
# ----------------------------------------------------------------------
def hierarchical_points(kernel: str, measurements: Sequence[Measurement],
                        levels: Sequence[str] = LEVELS) -> List[Trajectory]:
    """One trajectory per level: ``(I_k, P)`` for every measurement."""
    trajectories = []
    for level in levels:
        traj = Trajectory(f"{kernel}@{level}")
        for m in measurements:
            traj.add(KernelPoint(
                label=f"{m.label()} @{level}",
                intensity=m.level_intensity(level),
                performance=m.performance,
                series=traj.series,
                n=m.n,
                protocol=m.protocol,
                threads=m.threads,
            ))
        trajectories.append(traj)
    return trajectories


@dataclass
class AnalyzeResult:
    """Hierarchical placement of one kernel on one measured machine."""

    #: kernel registry name analysed
    kernel: str
    #: problem sizes measured, in order
    sizes: Tuple[int, ...]
    #: ceiling-discovery output (grid measurements included)
    ceilings: ErtCeilings
    #: the hierarchical model built from the discovered ceilings
    roofline: HierarchicalRoofline
    #: the kernel's own sweep, in size order
    measurements: Tuple[Measurement, ...]
    #: hierarchy levels placed (subset of :data:`LEVELS`)
    levels: Tuple[str, ...] = LEVELS
    #: compile-tier / nest-executor counters of both sweeps (reported by
    #: ``repro analyze --json``; not part of :meth:`to_json_doc`, whose
    #: digest pins the analysis itself)
    plan_cache: Dict[str, float] = field(default_factory=dict)

    def trajectories(self) -> List[Trajectory]:
        """Per-level (I_k, P) series for the kernel sweep."""
        return hierarchical_points(self.kernel, self.measurements,
                                   self.levels)

    def model(self) -> RooflineModel:
        return self.roofline.to_model()

    def intensities(self) -> Dict[str, List[float]]:
        """Per-level arithmetic intensities, one list entry per size."""
        return {
            level: [m.level_intensity(level) for m in self.measurements]
            for level in self.levels
        }

    def to_json_doc(self) -> dict:
        return {
            "kernel": self.kernel,
            "sizes": list(self.sizes),
            "machine": self.ceilings.machine.key_doc(),
            "hierarchical": self.roofline.to_dict(),
            "model": model_to_dict(self.model()),
            "points": [
                {
                    "series": p.series,
                    "label": p.label,
                    "n": p.n,
                    "protocol": p.protocol,
                    "threads": p.threads,
                    "intensity": p.intensity,
                    "performance": p.performance,
                }
                for traj in self.trajectories() for p in traj.points
            ],
            "measurements": [
                {
                    "n": m.n,
                    "true_flops": m.true_flops,
                    "runtime_seconds": m.runtime_seconds,
                    "traffic_bytes": m.traffic_bytes,
                    "level_bytes": m.level_bytes,
                }
                for m in self.measurements
            ],
        }

    def svg(self, **kwargs) -> str:
        from .plot_svg import svg_plot

        kwargs.setdefault("title",
                          f"Hierarchical roofline: {self.kernel} "
                          f"on {self.roofline.name}")
        return svg_plot(self.model(), trajectories=self.trajectories(),
                        **kwargs)

    def ascii(self, **kwargs) -> str:
        from .plot_ascii import ascii_plot

        return ascii_plot(self.model(), trajectories=self.trajectories(),
                          **kwargs)


def analyze(kernel: str, sizes: Sequence[int], machine="snb",
            protocol: str = "cold", reps: int = 2,
            cores: Tuple[int, ...] = (0,),
            kernel_args: Optional[dict] = None,
            flop_counts: Sequence[int] = DEFAULT_FLOP_COUNTS,
            jobs: Optional[int] = None, cache=None,
            ceilings: Optional[ErtCeilings] = None) -> AnalyzeResult:
    """Measure a machine's ceilings and place ``kernel`` on every band.

    The flagship entry point: discovers the machine's L1/L2/L3/DRAM
    bandwidth ceilings and compute roof with the ERT grid (unless
    ``ceilings`` is supplied from an earlier discovery), sweeps the
    kernel over ``sizes``, and returns an :class:`AnalyzeResult` whose
    per-level intensities divide exact work by measured per-level
    traffic.  Both sweeps run through the cached parallel sweep
    executor; ``jobs``/``cache`` tune it.

    >>> result = analyze("dgemm-tiled", [16, 32, 64], machine="tiny")
    >>> print(result.ascii())
    """
    kernel = resolve_kernel(kernel)
    if not sizes:
        raise ConfigurationError("analyze needs at least one problem size")
    ref = resolve_machine_ref(machine)
    if ceilings is None:
        ceilings = discover_ceilings(ref, flop_counts=flop_counts,
                                     reps=reps, cores=cores,
                                     jobs=jobs, cache=cache)
    plan = SweepPlan()
    plan.add_sweep(ref, kernel, list(sizes), protocol=protocol, reps=reps,
                   cores=cores, kernel_args=kernel_args)
    run = run_plan(plan, jobs=jobs, cache=cache)
    return AnalyzeResult(
        kernel=kernel,
        sizes=tuple(sizes),
        ceilings=ceilings,
        roofline=HierarchicalRoofline.from_ceilings(ceilings),
        measurements=tuple(run.measurements),
        plan_cache=merge_plan_cache([ceilings.plan_cache, run.plan_cache]),
    )
