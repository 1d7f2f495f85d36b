"""Sweep execution backends.

Two implementations of the :class:`~repro.sweep.backends.base.
SweepBackend` protocol:

========  ============================  ===============================
name      class                         runs points
========  ============================  ===============================
serial    :class:`SerialBackend`        in-process, one at a time
pool      :class:`LocalPoolBackend`     local ``ProcessPoolExecutor``
========  ============================  ===============================

Both funnel points through the same ``simulate_point`` →
serialised-payload path, so results are bit-identical and share one
content-addressed cache.  ``run_plan`` picks one from ``jobs`` (serial
for one job or one pending point, the pool otherwise) unless the caller
lends it a backend instance.
"""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("BackendStats", "PointResult", "SweepBackend", "WorkItem"),
    ".localpool": ("LocalPoolBackend",),
    ".serial": ("SerialBackend",),
})
