"""Counter multiplexing: what happens when you program more events than
the PMU has programmable slots.

Real cores have a handful of programmable counters (four per thread on
the paper's Sandy Bridge).  ``perf`` silently *time-multiplexes* larger
event sets: groups rotate onto the hardware on a timer, each event is
counted only while its group is scheduled, and the reported value is
scaled by observed/enabled time.  For bursty workloads (exactly what a
measurement window around one kernel is) the uniform-activity
assumption behind the scaling breaks and estimates go wrong.

The paper's methodology implicitly avoids this: its W measurement needs
exactly the four FP events, which fit the four slots.  This module
makes the hazard measurable: :class:`MultiplexedPerfSession` snapshots
counters at every run boundary (the machine notifies registered
sessions), applies a deterministic rotation schedule, and reports both
the scaled estimate and the ground truth, so experiment A3 can show the
error and its dependence on the rotation quantum.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import PmuError
from .events import SCOPE_CORE, event

#: programmable counters per core on the simulated machines
DEFAULT_SLOTS = 4


def _chunk(items: List[str], size: int) -> List[List[str]]:
    return [items[i:i + size] for i in range(0, len(items), size)]


class MultiplexedPerfSession:
    """A perf-like session with slot-limited, time-rotated event groups.

    Usage mirrors :class:`~repro.pmu.perf.PerfSession`; after the window
    closes, :meth:`estimate` returns the scaled (perf-style) value and
    :meth:`true_delta` the ground truth the simulator knows.
    """

    def __init__(self, machine, core_events: Iterable[str],
                 cores: Iterable[int] = (0,), slots: int = DEFAULT_SLOTS,
                 rotation_cycles: float = 100_000.0) -> None:
        self.machine = machine
        self.core_events = list(core_events)
        for event_id in self.core_events:
            if event(event_id).scope != SCOPE_CORE:
                raise PmuError(f"{event_id} is not a core event")
        if slots <= 0:
            raise PmuError("need at least one programmable slot")
        if rotation_cycles <= 0:
            raise PmuError("rotation quantum must be positive")
        self.cores = tuple(cores)
        self.slots = slots
        self.rotation_cycles = rotation_cycles
        self.groups = _chunk(self.core_events, slots)
        self._snapshots: List[Tuple[float, Dict[Tuple[int, str], int]]] = []
        self._open = False
        self._closed = False

    # ------------------------------------------------------------------
    # window control
    # ------------------------------------------------------------------
    def _snapshot(self) -> None:
        values = {}
        for core in self.cores:
            pmu = self.machine.core_pmu(core)
            for event_id in self.core_events:
                values[(core, event_id)] = pmu.read(event_id)
        self._snapshots.append((self.machine.tsc, values))

    def __enter__(self) -> "MultiplexedPerfSession":
        if self._open or self._closed:
            raise PmuError("multiplexed sessions are single-use")
        self._open = True
        self.machine.register_session(self)
        self._snapshot()
        return self

    def on_run_boundary(self, run) -> None:
        """Called by the machine after every program run (``run`` is
        its :class:`RunResult`; the snapshot reads the counters)."""
        if self._open:
            self._snapshot()

    def __exit__(self, exc_type, exc, tb) -> None:
        self._snapshot()
        self.machine.unregister_session(self)
        self._open = False
        self._closed = True

    # ------------------------------------------------------------------
    # rotation schedule
    # ------------------------------------------------------------------
    def _scheduled_fraction(self, group_index: int,
                            t0: float, t1: float) -> float:
        """Fraction of ``[t0, t1)`` during which ``group_index`` owned
        the hardware counters under round-robin rotation."""
        if t1 <= t0:
            return 0.0
        n_groups = len(self.groups)
        if n_groups == 1:
            return 1.0
        quantum = self.rotation_cycles
        period = quantum * n_groups
        scheduled = 0.0
        # walk whole periods analytically, edges exactly
        first_period = math.floor(t0 / period)
        last_period = math.floor((t1 - 1e-9) / period)
        for k in range(int(first_period), int(last_period) + 1):
            window_lo = k * period + group_index * quantum
            window_hi = window_lo + quantum
            scheduled += max(0.0, min(t1, window_hi) - max(t0, window_lo))
        return scheduled / (t1 - t0)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _require_closed(self) -> None:
        if not self._closed:
            raise PmuError("session window not closed yet")

    def _group_of(self, event_id: str) -> int:
        for index, group in enumerate(self.groups):
            if event_id in group:
                return index
        raise PmuError(f"{event_id} was not programmed in this session")

    def true_delta(self, event_id: str, core: Optional[int] = None) -> int:
        """Ground-truth delta over the whole window."""
        self._require_closed()
        self._group_of(event_id)
        cores = self.cores if core is None else (core,)
        first, last = self._snapshots[0][1], self._snapshots[-1][1]
        return sum(last[(c, event_id)] - first[(c, event_id)] for c in cores)

    def estimate(self, event_id: str, core: Optional[int] = None) -> float:
        """The perf-style scaled estimate: counts observed while the
        event's group was scheduled, divided by the scheduled fraction.
        Assumes uniform activity *within* each run interval — the
        assumption that breaks on bursty windows."""
        self._require_closed()
        group = self._group_of(event_id)
        cores = self.cores if core is None else (core,)
        observed = 0.0
        scheduled_time = 0.0
        total_time = 0.0
        for (t0, before), (t1, after) in zip(self._snapshots,
                                             self._snapshots[1:]):
            fraction = self._scheduled_fraction(group, t0, t1)
            delta = sum(after[(c, event_id)] - before[(c, event_id)]
                        for c in cores)
            observed += delta * fraction
            scheduled_time += fraction * (t1 - t0)
            total_time += t1 - t0
        if scheduled_time <= 0.0:
            raise PmuError(
                f"group {group} was never scheduled during the window; "
                "shrink the rotation quantum"
            )
        return observed * total_time / scheduled_time

    def estimate_error(self, event_id: str) -> float:
        """Relative error of the multiplexed estimate vs ground truth."""
        true = self.true_delta(event_id)
        if true == 0:
            return 0.0
        return (self.estimate(event_id) - true) / true

    @property
    def multiplexing(self) -> bool:
        """Whether the event set actually exceeds the slots."""
        return len(self.groups) > 1
