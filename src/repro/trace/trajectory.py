"""Roofline trajectory: the (I, P) path a kernel traces over time.

A whole-run measurement collapses execution to a single point on the
roofline plane.  Windowing the same run (:mod:`repro.trace.timeline`)
yields one (I, P) coordinate per window — the *trajectory* that shows
the cold-start transient drifting right as reuse warms up, the
steady-state cluster, and any cache-spill excursion toward the
bandwidth roof.  Both roofline plotters overlay it: ``plot_svg`` as a
time-gradient polyline with start/end markers, ``plot_ascii`` as
sampled breadcrumb digits.

Distinct from :class:`repro.roofline.point.Trajectory`, which is a
*size sweep* (one aggregate point per problem size); this one is a
*time sweep* (one point per cycle window of a single run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import TimelineError


@dataclass(frozen=True)
class TrajectoryPoint:
    """One window's roofline coordinate.

    ``intensity`` is flops over DRAM bytes (floored at one cache line,
    matching the measured-intensity convention), ``performance`` is
    flops/s at the machine's base frequency.
    """

    index: int
    t_start: float
    t_end: float
    intensity: float
    performance: float
    flops: int
    dram_bytes: int


@dataclass
class RooflineTrajectory:
    """Ordered (I, P) points of one run, in execution order."""

    label: str
    points: List[TrajectoryPoint]
    window_cycles: float
    frequency_hz: Optional[float] = None

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def from_timeline(cls, timeline, label: str = "trajectory"
                      ) -> "RooflineTrajectory":
        """Project a :class:`~repro.trace.timeline.Timeline` onto the
        roofline plane.

        Windows with zero issued flops have no defined intensity and
        are skipped (a DRAM-only or idle window is invisible on a
        flops-per-second axis anyway); traffic is floored at one cache
        line so cache-resident windows land far right rather than at
        infinity.
        """
        if timeline.frequency_hz is None:
            raise TimelineError(
                "trajectory needs a machine frequency to place windows "
                "on the performance axis; build the timeline with a "
                "machine attached"
            )
        line = timeline.line_bytes
        points: List[TrajectoryPoint] = []
        for window in timeline.windows:
            flops = window.counters.get("flops", 0)
            if flops <= 0 or window.width <= 0:
                continue
            dram_bytes = (window.dram_read_lines
                          + window.dram_write_lines) * line
            points.append(TrajectoryPoint(
                index=window.index,
                t_start=window.start,
                t_end=window.end,
                intensity=flops / max(dram_bytes, line),
                performance=flops / window.width * timeline.frequency_hz,
                flops=flops,
                dram_bytes=dram_bytes,
            ))
        return cls(
            label=label,
            points=points,
            window_cycles=timeline.window_cycles,
            frequency_hz=timeline.frequency_hz,
        )

    def to_csv(self) -> str:
        """Per-point CSV (window index, cycle bounds, I, P, raw sums)."""
        rows = ["window,start_cycle,end_cycle,intensity_flops_per_byte,"
                "performance_flops_per_s,flops,dram_bytes"]
        for p in self.points:
            rows.append(
                f"{p.index},{p.t_start:g},{p.t_end:g},"
                f"{p.intensity:.6g},{p.performance:.6g},"
                f"{p.flops},{p.dram_bytes}"
            )
        return "\n".join(rows) + "\n"

    def to_json_doc(self) -> dict:
        return {
            "label": self.label,
            "window_cycles": self.window_cycles,
            "frequency_hz": self.frequency_hz,
            "points": [
                {
                    "window": p.index,
                    "t_start": p.t_start,
                    "t_end": p.t_end,
                    "intensity": p.intensity,
                    "performance": p.performance,
                    "flops": p.flops,
                    "dram_bytes": p.dram_bytes,
                }
                for p in self.points
            ],
        }
