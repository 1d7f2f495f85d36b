"""Parallel sweep engine with content-addressed result caching.

Measurement grids — the (kernel x size x protocol x machine) sweeps
behind every roofline figure — are described declaratively as
:class:`SweepPlan` objects, executed through a :class:`~repro.sweep.backends.SweepBackend`
(in-process serial or a local process pool), and
memoised point-by-point in an on-disk cache keyed by the full content
of each point's inputs.  Every backend and cache-replayed run returns
bit-identical measurements; ``tests/sweep/`` enforces it.
"""

from .backends import (
    LocalPoolBackend,
    PointResult,
    SerialBackend,
    SweepBackend,
    WorkItem,
)
from .cache import VERSION_SALT, SweepCache, default_cache_dir, point_key
from .executor import (
    JOBS_ENV,
    SweepRun,
    SweepStats,
    resolve_jobs,
    run_plan,
    simulate_point,
)
from .grids import GRIDS, build_plan, make_grid
from .plan import SweepPlan, SweepPoint
from .serialize import measurement_to_payload, payload_to_measurement

__all__ = [
    "GRIDS",
    "JOBS_ENV",
    "LocalPoolBackend",
    "PointResult",
    "SerialBackend",
    "SweepBackend",
    "SweepCache",
    "SweepPlan",
    "SweepPoint",
    "SweepRun",
    "SweepStats",
    "VERSION_SALT",
    "WorkItem",
    "build_plan",
    "default_cache_dir",
    "make_grid",
    "measurement_to_payload",
    "payload_to_measurement",
    "point_key",
    "resolve_jobs",
    "run_plan",
    "simulate_point",
]
