"""Where ``run_plan`` runs a sweep's misses in parallel.

:class:`LocalPoolBackend` fans one run's points over a local
``ProcessPoolExecutor``; ``run_plan`` builds one when ``jobs > 1`` and
more than one point misses, and shuts it down when the run ends.  A
serial run calls :func:`~repro.sweep.executor.simulate_point` inline.
Both paths produce the same serialised payload, so results are
bit-identical and share one content-addressed cache.
"""

from ..._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".localpool": ("LocalPoolBackend",),
})
