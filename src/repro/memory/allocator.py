"""Simulated address-space allocator with NUMA placement.

Programs declare named buffers; before execution the machine maps each
buffer to a region of the simulated physical address space.  The
allocator is a simple bump allocator with alignment, mirroring the
``numactl``-bound allocations the paper controls explicitly: each region
carries the NUMA node its pages live on, and the hierarchy routes its
traffic to that node's memory controller.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import AllocationError
from ..units import CACHE_LINE_BYTES, PAGE_BYTES, round_up


@dataclass(frozen=True)
class Allocation:
    """A mapped buffer: ``[base, base + size)`` on ``node``."""

    name: str
    base: int
    size: int
    node: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def line_range(self, line_bytes: int = CACHE_LINE_BYTES):
        """(first_line, last_line_exclusive) covering the region."""
        first = self.base // line_bytes
        last = (self.base + self.size + line_bytes - 1) // line_bytes
        return first, last

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class BumpAllocator:
    """Page-aligned bump allocation over a flat simulated address space."""

    def __init__(self, base: int = PAGE_BYTES,
                 capacity: int = 1 << 40,
                 default_align: int = CACHE_LINE_BYTES,
                 stagger: bool = True) -> None:
        """``stagger`` offsets successive allocations by one cache line
        each (modulo 16), the discipline STREAM-style benchmarks use so
        that equal-sized arrays do not collide in the same cache sets.
        Explicit ``align`` requests above one line suppress it."""
        if base < 0 or capacity <= 0:
            raise AllocationError("allocator needs non-negative base, positive capacity")
        self._start = base
        self._next = base
        self._capacity = capacity
        self._default_align = default_align
        self._stagger = stagger
        self._regions: List[Allocation] = []
        self._bases: List[int] = []
        self._by_name: Dict[str, Allocation] = {}

    def allocate(self, name: str, size: int, node: int = 0,
                 align: Optional[int] = None) -> Allocation:
        """Map ``size`` bytes for buffer ``name`` on NUMA ``node``.

        Each allocation starts on a fresh page so two buffers never share
        a cache line or a page (which would confuse traffic attribution).
        """
        if size <= 0:
            raise AllocationError(f"buffer {name!r} needs positive size")
        if name in self._by_name:
            raise AllocationError(f"buffer {name!r} already allocated")
        requested_align = align
        align = align or self._default_align
        if align <= 0 or align & (align - 1):
            raise AllocationError(f"alignment {align} must be a power of two")
        base = round_up(round_up(self._next, PAGE_BYTES), align)
        if self._stagger and (requested_align is None
                              or requested_align <= CACHE_LINE_BYTES):
            base += (len(self._regions) % 16) * CACHE_LINE_BYTES
        end = base + round_up(size, PAGE_BYTES)
        if end - self._start > self._capacity:
            raise AllocationError(
                f"address space exhausted allocating {size} bytes for {name!r}"
            )
        allocation = Allocation(name, base, size, node)
        self._regions.append(allocation)
        self._bases.append(base)
        self._by_name[name] = allocation
        self._next = end
        return allocation

    def get(self, name: str) -> Allocation:
        """Look up an allocation by buffer name."""
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise AllocationError(f"no allocation named {name!r}") from exc

    def region_of(self, addr: int) -> Allocation:
        """The allocation containing simulated address ``addr``."""
        idx = bisect.bisect_right(self._bases, addr) - 1
        if idx >= 0:
            region = self._regions[idx]
            if region.contains(addr):
                return region
        raise AllocationError(f"address {addr:#x} is not mapped")

    def node_of(self, addr: int) -> int:
        """NUMA node owning ``addr``."""
        return self.region_of(addr).node

    @property
    def allocations(self) -> List[Allocation]:
        return list(self._regions)

    @property
    def capacity(self) -> int:
        """Bytes of simulated address space the allocator can map."""
        return self._capacity

    @property
    def bytes_allocated(self) -> int:
        return self._next - self._start

    def reset(self) -> None:
        """Drop all mappings (new program load)."""
        self._next = self._start
        self._regions.clear()
        self._bases.clear()
        self._by_name.clear()
