"""Hardware prefetcher models and their MSR-style control mask."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("Prefetcher", "PrefetchStats"),
    ".control": ("ALL_DISABLED_MASK", "BIT_L1_NEXTLINE", "BIT_L1_STRIDE",
                 "BIT_L2_ADJACENT", "BIT_L2_STREAM", "PrefetchControl"),
    ".nextline": ("NextLinePrefetcher",),
    ".stream": ("StreamPrefetcher",),
    ".stride": ("StridePrefetcher",),
})
