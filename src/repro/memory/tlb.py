"""TLB model: two-level translation caching with page-walk cost.

Strided kernels (column-major dgemv, large-stride gathers) touch a new
4 KiB page on nearly every access; once the working set's *page count*
exceeds the STLB, every access also pays a page walk.  That cost is
invisible to cache-only models but bends real measured rooflines — so
the substrate models it.

Walks are modelled as latency only (walk entries hit the page-table
caches), so functional memory traffic — and therefore every Q
measurement — is unaffected; only the cycle model sees TLB misses.
Fully-associative LRU arrays, like the hardware's L1 DTLB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class TlbConfig:
    """Two-level data-TLB geometry (Sandy Bridge-like defaults)."""

    l1_entries: int = 64
    l2_entries: int = 512
    page_bytes: int = 4096
    walk_latency_cycles: int = 30

    def __post_init__(self) -> None:
        if self.l1_entries <= 0 or self.l2_entries <= 0:
            raise ConfigurationError("TLB levels need positive entry counts")
        if self.l2_entries < self.l1_entries:
            raise ConfigurationError("STLB must be at least L1-DTLB sized")
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise ConfigurationError("page size must be a power of two")
        if self.walk_latency_cycles < 0:
            raise ConfigurationError("walk latency must be non-negative")


@dataclass
class TlbStats:
    """Cumulative translation events."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    walks: int = 0

    def reset(self) -> None:
        self.accesses = 0
        self.l1_hits = 0
        self.l2_hits = 0
        self.walks = 0

    @property
    def walk_rate(self) -> float:
        return self.walks / self.accesses if self.accesses else 0.0


class Tlb:
    """Per-core two-level TLB (fully associative, LRU via dict order)."""

    def __init__(self, config: TlbConfig) -> None:
        self.config = config
        self.stats = TlbStats()
        self._l1: dict = {}
        self._l2: dict = {}
        self._page_shift = config.page_bytes.bit_length() - 1

    def page_of_line(self, line: int, line_bytes: int = 64) -> int:
        """Page number containing a cache line."""
        return (line * line_bytes) >> self._page_shift

    def translate_page(self, page: int) -> int:
        """Translate one page access; returns walk cycles incurred."""
        self.stats.accesses += 1
        if page in self._l1:
            del self._l1[page]
            self._l1[page] = True
            self.stats.l1_hits += 1
            return 0
        if page in self._l2:
            del self._l2[page]
            self.stats.l2_hits += 1
            self._fill(page)
            return 0
        self.stats.walks += 1
        self._fill(page)
        return self.config.walk_latency_cycles

    def _fill(self, page: int) -> None:
        if len(self._l1) >= self.config.l1_entries:
            victim = next(iter(self._l1))
            del self._l1[victim]
            if len(self._l2) >= self.config.l2_entries:
                del self._l2[next(iter(self._l2))]
            self._l2[victim] = True
        self._l1[page] = True

    def contains(self, page: int) -> bool:
        """Resident in either level (no state change)."""
        return page in self._l1 or page in self._l2

    def flush(self) -> None:
        """Full TLB shootdown (context-switch analogue)."""
        self._l1.clear()
        self._l2.clear()

    def reset(self) -> None:
        self.flush()
        self.stats.reset()

    @property
    def resident_pages(self) -> int:
        return len(self._l1) + len(self._l2)

    def page_sets(self):
        """(L1 pages, L2 pages) as frozensets (conformance/diagnostics)."""
        return frozenset(self._l1), frozenset(self._l2)


class ArrayTlb:
    """Numpy-backed TLB whose state only the C datapath kernel writes.

    The kernel keeps each level in :class:`Tlb`'s dict order reversed,
    as a prefix of valid entries: L1 most recent first (a hit moves its
    page to the front), L2 newest *insertion* first (L2 entries never
    move after insert, matching the dict's insert-only ordering).  The
    victim is a level's last valid entry.  Python keeps the stats, the
    in-place :meth:`flush`/:meth:`reset` and read-only inspection; there
    is no ``translate_page`` here.

    Array layout (shared with ``engine/_ckernel.c``):

    * ``l1_pages`` — fully-associative L1 entries (page numbers); -1
      marks the empty slots after the valid prefix.
    * ``l2_pages`` — same for the STLB.
    * ``regs`` — ``[l1_count, l2_count]``.
    """

    EMPTY = -1

    def __init__(self, config: TlbConfig) -> None:
        self.config = config
        self.stats = TlbStats()
        self._page_shift = config.page_bytes.bit_length() - 1
        self.l1_pages = np.full(config.l1_entries, self.EMPTY, dtype=np.int64)
        self.l2_pages = np.full(config.l2_entries, self.EMPTY, dtype=np.int64)
        self.regs = np.zeros(2, dtype=np.int64)  # [l1_count, l2_count]

    def page_of_line(self, line: int, line_bytes: int = 64) -> int:
        return (line * line_bytes) >> self._page_shift

    def contains(self, page: int) -> bool:
        return bool((self.l1_pages == page).any()
                    or (self.l2_pages == page).any())

    def flush(self) -> None:
        # In place: the C kernel holds raw pointers to these arrays.
        self.l1_pages.fill(self.EMPTY)
        self.l2_pages.fill(self.EMPTY)
        self.regs.fill(0)

    def reset(self) -> None:
        self.flush()
        self.stats.reset()

    @property
    def resident_pages(self) -> int:
        return int(self.regs[0] + self.regs[1])

    def page_sets(self):
        l1 = frozenset(int(p) for p in self.l1_pages if p != self.EMPTY)
        l2 = frozenset(int(p) for p in self.l2_pages if p != self.EMPTY)
        return l1, l2
