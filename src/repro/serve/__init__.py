"""Roofline-as-a-service: asyncio HTTP/JSON front-end (``repro serve``).

See :mod:`repro.serve.server` for the endpoint map and
``docs/SERVICE.md`` for the operator guide.  Stdlib-only: asyncio
streams for transport, the sweep engine for the work, the metrics
registry for observability.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".http": ("HttpError", "Request"),
    ".jobs": ("Job", "JobTable", "job_key"),
    ".server": ("RooflineServer",),
})
