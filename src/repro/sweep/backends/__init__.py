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

from __future__ import annotations

from .base import BackendStats, PointResult, SweepBackend, WorkItem
from .localpool import LocalPoolBackend
from .serial import SerialBackend

__all__ = [
    "BackendStats",
    "LocalPoolBackend",
    "PointResult",
    "SerialBackend",
    "SweepBackend",
    "WorkItem",
]
