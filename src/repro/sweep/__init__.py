"""Parallel sweep engine with content-addressed result caching.

Measurement grids — the (kernel x size x protocol x machine) sweeps
behind every roofline figure — are described declaratively as
:class:`SweepPlan` objects, executed through a :class:`~repro.sweep.backends.SweepBackend`
(in-process serial or a local process pool), and
memoised point-by-point in an on-disk cache keyed by the full content
of each point's inputs.  Every backend and cache-replayed run returns
bit-identical measurements; ``tests/sweep/`` enforces it.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".backends.base": ("PointResult", "SweepBackend", "WorkItem"),
    ".backends.localpool": ("LocalPoolBackend",),
    ".backends.serial": ("SerialBackend",),
    ".cache": ("VERSION_SALT", "SweepCache", "default_cache_dir",
               "point_key"),
    ".executor": ("JOBS_ENV", "SweepRun", "SweepStats", "resolve_jobs",
                  "run_plan", "simulate_point"),
    ".grids": ("GRIDS", "build_plan", "make_grid"),
    ".plan": ("SweepPlan", "SweepPoint"),
    ".serialize": ("measurement_to_payload", "payload_to_measurement"),
})
