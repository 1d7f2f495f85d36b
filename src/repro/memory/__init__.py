"""Memory subsystem: caches, replacement, DRAM/IMC, NUMA, allocator,
and the multi-level hierarchy with per-core access ports."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".allocator": ("Allocation", "BumpAllocator"),
    ".cache": ("Cache", "CacheConfig", "CacheStats"),
    ".dram": ("DramConfig", "DramNode", "ImcCounters"),
    ".hierarchy": ("BatchStats", "CorePort", "HierarchyConfig",
                   "MemoryHierarchy", "default_prefetchers"),
    ".numa": ("NumaConfig", "Topology"),
    ".tlb": ("Tlb", "TlbConfig", "TlbStats"),
    ".replacement": ("FifoPolicy", "LruPolicy", "RandomPolicy",
                     "ReplacementPolicy", "TreePlruPolicy", "make_policy",
                     "policy_names"),
})
