"""Reference memory models for the conformance harness.

Two deliberately simple backends implement the same per-line port
interface the reference interpreter drives:

* :class:`ReferenceMemory` — straight-line textbook set-associative
  caches (explicit ways arrays with LRU timestamps, no dict-order
  tricks), a two-level TLB, per-node DRAM counters, and the hardware
  prefetch engines.  It re-derives every statistic the fast
  :class:`~repro.memory.hierarchy.CorePort` reports, one line at a
  time, so the differential engine can diff the two implementations
  field by field.
* :class:`InfiniteCacheMemory` — an idealised machine whose cache holds
  every line ever touched.  On a capacious "oracle" machine the fast
  path must agree with it exactly, which turns it into an analytic
  W/Q oracle for the kernel registry (see :mod:`repro.oracle.analytic`).

The hardware prefetch *engine* classes (next-line/stream/stride) are
reused from :mod:`repro.prefetch` rather than re-implemented: their
per-engine logic is already covered by dedicated unit tests, and the
conformance target is the interpreter/hierarchy batching around them.
Everything else — lookup, fill, eviction, writeback absorption, TLB
walks, DRAM counting — is written independently here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..memory.cache import CacheConfig, CacheStats
from ..memory.hierarchy import default_prefetchers
from ..prefetch.control import PrefetchControl

#: the exact counter set of ``BatchStats.as_dict`` (kept literal on
#: purpose: if the fast path grows a counter the diff must notice)
STAT_KEYS: Tuple[str, ...] = (
    "accesses",
    "l1_hits",
    "l2_hits",
    "l3_hits",
    "dram_reads",
    "writebacks",
    "nt_lines",
    "l1_evictions",
    "l2_evictions",
    "l3_evictions",
    "sw_prefetches",
    "hw_prefetch_issued",
    "hw_prefetch_dram_reads",
    "prefetch_useful",
    "remote_dram_lines",
    "flushes",
    "tlb_misses",
    "tlb_walk_cycles",
)


def zero_stats() -> Dict[str, int]:
    """A fresh all-zero batch counter dict."""
    return {key: 0 for key in STAT_KEYS}


class RefCache:
    """Textbook set-associative write-back cache.

    Explicit ``ways`` arrays per set with an LRU timestamp per way — no
    insertion-order tricks.  Statistic accounting mirrors
    :class:`repro.memory.cache.Cache` operation for operation.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self.nsets = config.nsets
        self.assoc = config.assoc
        self.tags: List[List[Optional[int]]] = [
            [None] * self.assoc for _ in range(self.nsets)
        ]
        self.dirty: List[List[bool]] = [
            [False] * self.assoc for _ in range(self.nsets)
        ]
        self.stamps: List[List[int]] = [
            [0] * self.assoc for _ in range(self.nsets)
        ]
        self._tick = 0

    def _set_index(self, line: int) -> int:
        return line % self.nsets

    def _find_way(self, set_idx: int, line: int) -> Optional[int]:
        for way in range(self.assoc):
            if self.tags[set_idx][way] == line:
                return way
        return None

    def _touch(self, set_idx: int, way: int) -> None:
        self._tick += 1
        self.stamps[set_idx][way] = self._tick

    def lookup_update(self, line: int, mark_dirty: bool = False) -> bool:
        """Demand access: refresh recency (and dirty) on hit; no fill."""
        set_idx = self._set_index(line)
        way = self._find_way(set_idx, line)
        if way is None:
            self.stats.misses += 1
            return False
        self._touch(set_idx, way)
        if mark_dirty:
            self.dirty[set_idx][way] = True
        self.stats.hits += 1
        return True

    def fill(self, line: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Insert ``line``; returns ``(evicted_line, was_dirty)`` or None."""
        self.stats.fills += 1
        set_idx = self._set_index(line)
        way = self._find_way(set_idx, line)
        if way is not None:
            # refill refreshes recency and ORs the dirty flag
            self._touch(set_idx, way)
            self.dirty[set_idx][way] = self.dirty[set_idx][way] or dirty
            return None
        for way in range(self.assoc):
            if self.tags[set_idx][way] is None:
                self.tags[set_idx][way] = line
                self.dirty[set_idx][way] = dirty
                self._touch(set_idx, way)
                return None
        # full set: evict the least recently used way
        victim_way = 0
        for way in range(1, self.assoc):
            if self.stamps[set_idx][way] < self.stamps[set_idx][victim_way]:
                victim_way = way
        evicted = (self.tags[set_idx][victim_way],
                   self.dirty[set_idx][victim_way])
        self.stats.evictions += 1
        if evicted[1]:
            self.stats.dirty_evictions += 1
        self.tags[set_idx][victim_way] = line
        self.dirty[set_idx][victim_way] = dirty
        self._touch(set_idx, victim_way)
        return evicted

    def mark_dirty(self, line: int) -> bool:
        """Set the dirty bit without touching recency or hit stats."""
        set_idx = self._set_index(line)
        way = self._find_way(set_idx, line)
        if way is None:
            return False
        self.dirty[set_idx][way] = True
        return True

    def invalidate(self, line: int) -> Optional[bool]:
        """Drop ``line`` if present; returns its dirty flag, else None."""
        set_idx = self._set_index(line)
        way = self._find_way(set_idx, line)
        if way is None:
            return None
        was_dirty = self.dirty[set_idx][way]
        self.tags[set_idx][way] = None
        self.dirty[set_idx][way] = False
        self.stats.invalidations += 1
        return was_dirty

    def contains(self, line: int) -> bool:
        return self._find_way(self._set_index(line), line) is not None

    def resident_lines(self) -> frozenset:
        return frozenset(
            tag for ways in self.tags for tag in ways if tag is not None
        )

    def dirty_lines(self) -> frozenset:
        out = []
        for set_idx in range(self.nsets):
            for way in range(self.assoc):
                if self.tags[set_idx][way] is not None \
                        and self.dirty[set_idx][way]:
                    out.append(self.tags[set_idx][way])
        return frozenset(out)


class RefTlb:
    """Two-level fully-associative LRU TLB with explicit timestamps."""

    def __init__(self, config) -> None:
        self.config = config
        self._l1: Dict[int, int] = {}   # page -> stamp
        self._l2: Dict[int, int] = {}
        self._tick = 0

    def _stamp(self) -> int:
        self._tick += 1
        return self._tick

    def _oldest(self, level: Dict[int, int]) -> int:
        victim = None
        for page, stamp in level.items():
            if victim is None or stamp < level[victim]:
                victim = page
        return victim

    def translate_page(self, page: int) -> int:
        """Translate one page access; returns walk cycles incurred."""
        if page in self._l1:
            self._l1[page] = self._stamp()
            return 0
        if page in self._l2:
            del self._l2[page]
            self._fill(page)
            return 0
        self._fill(page)
        return self.config.walk_latency_cycles

    def _fill(self, page: int) -> None:
        if len(self._l1) >= self.config.l1_entries:
            victim = self._oldest(self._l1)
            del self._l1[victim]
            if len(self._l2) >= self.config.l2_entries:
                del self._l2[self._oldest(self._l2)]
            self._l2[victim] = self._stamp()
        self._l1[page] = self._stamp()

    def page_sets(self) -> Tuple[frozenset, frozenset]:
        return frozenset(self._l1), frozenset(self._l2)


class ReferenceMemory:
    """Textbook re-implementation of the whole memory hierarchy.

    Exposes per-line operations (``access`` / ``sw_prefetch`` /
    ``flush``) that transcribe the fast :class:`CorePort` resolution
    protocol — L1 -> L2 -> L3 -> DRAM with fill/writeback cascades,
    prefetch engine training and TLB walks — without any batching.
    """

    def __init__(self, spec, prefetch_mask: int = 0) -> None:
        config = spec.hierarchy
        topology = spec.topology
        self.config = config
        self.topology = topology
        self.control = PrefetchControl()
        self.control.write_msr(prefetch_mask)
        ncores = topology.total_cores
        sockets = topology.sockets
        self.l1 = [RefCache(config.l1) for _ in range(ncores)]
        self.l2 = [RefCache(config.l2) for _ in range(ncores)]
        self.l3 = [RefCache(config.l3) for _ in range(sockets)]
        self.dram_reads = [0] * sockets
        self.dram_writes = [0] * sockets
        self.tlbs = [RefTlb(config.tlb) for _ in range(ncores)]
        self.engines = [default_prefetchers() for _ in range(ncores)]
        self.prefetched: List[set] = [set() for _ in range(ncores)]
        self.last_page = [-1] * ncores
        self._page_shift = (
            config.tlb.page_bytes.bit_length()
            - config.line_bytes.bit_length()
        )

    # ------------------------------------------------------------------
    # per-line operations
    # ------------------------------------------------------------------
    def access(self, core: int, line: int, is_write: bool, nt: bool,
               home: int, stream_id: int, stats: Dict[str, int]) -> None:
        if nt:
            self._nt_store(core, line, home, stats)
        else:
            self._demand(core, line, is_write, home, stream_id, stats)

    def _translate(self, core: int, line: int, stats: Dict[str, int]) -> None:
        page = line >> self._page_shift
        if page != self.last_page[core]:
            self.last_page[core] = page
            walk = self.tlbs[core].translate_page(page)
            if walk:
                stats["tlb_misses"] += 1
                stats["tlb_walk_cycles"] += walk

    def _enabled_engines(self, core: int) -> list:
        return [engine for engine in self.engines[core]
                if self.control.is_enabled(engine.kind)]

    def _demand(self, core: int, line: int, is_write: bool, home: int,
                stream_id: int, stats: Dict[str, int]) -> None:
        stats["accesses"] += 1
        self._translate(core, line, stats)
        node = self.topology.node_of_core(core)
        l1 = self.l1[core]
        l2 = self.l2[core]
        l3 = self.l3[node]
        prefetched = self.prefetched[core]
        engines = self._enabled_engines(core)
        if l1.lookup_update(line, is_write):
            stats["l1_hits"] += 1
            for engine in engines:
                if engine.train_on_hits:
                    candidates = engine.observe(line, False, stream_id)
                    if candidates:
                        self._hw_prefetch(core, candidates, home, stats)
            return
        if l2.lookup_update(line):
            stats["l2_hits"] += 1
            if line in prefetched:
                prefetched.discard(line)
                stats["prefetch_useful"] += 1
                for engine in engines:
                    engine.stats.useful += 1
        elif l3.lookup_update(line):
            stats["l3_hits"] += 1
            if line in prefetched:
                prefetched.discard(line)
                stats["prefetch_useful"] += 1
            self._fill_l2(core, line, stats, home)
        else:
            self.dram_reads[home] += 1
            stats["dram_reads"] += 1
            if home != node:
                stats["remote_dram_lines"] += 1
            self._fill_l3(core, line, stats, home)
            self._fill_l2(core, line, stats, home)
        self._fill_l1(core, line, is_write, stats, home)
        for engine in engines:
            candidates = engine.observe(line, True, stream_id)
            if candidates:
                self._hw_prefetch(core, candidates, home, stats)

    def _nt_store(self, core: int, line: int, home: int,
                  stats: Dict[str, int]) -> None:
        stats["accesses"] += 1
        self._translate(core, line, stats)
        node = self.topology.node_of_core(core)
        self.l1[core].invalidate(line)
        self.l2[core].invalidate(line)
        self.l3[node].invalidate(line)
        self.dram_writes[home] += 1
        stats["nt_lines"] += 1
        if home != node:
            stats["remote_dram_lines"] += 1

    # ------------------------------------------------------------------
    # fill / writeback cascades
    # ------------------------------------------------------------------
    def _fill_l1(self, core: int, line: int, dirty: bool,
                 stats: Dict[str, int], home: int) -> None:
        evicted = self.l1[core].fill(line, dirty=dirty)
        if evicted is not None:
            stats["l1_evictions"] += 1
            if evicted[1]:
                self._absorb_dirty(core, "l2", evicted[0], stats, home)

    def _fill_l2(self, core: int, line: int, stats: Dict[str, int],
                 home: int) -> None:
        evicted = self.l2[core].fill(line)
        if evicted is not None:
            stats["l2_evictions"] += 1
            if evicted[1]:
                self._absorb_dirty(core, "l3", evicted[0], stats, home)

    def _fill_l3(self, core: int, line: int, stats: Dict[str, int],
                 home: int) -> None:
        node = self.topology.node_of_core(core)
        evicted = self.l3[node].fill(line)
        if evicted is not None:
            stats["l3_evictions"] += 1
            if evicted[1]:
                self.dram_writes[home] += 1
                stats["writebacks"] += 1

    def _absorb_dirty(self, core: int, level: str, line: int,
                      stats: Dict[str, int], home: int) -> None:
        node = self.topology.node_of_core(core)
        lower = self.l2[core] if level == "l2" else self.l3[node]
        if lower.mark_dirty(line):
            return
        evicted = lower.fill(line, dirty=True)
        if evicted is None:
            return
        if level == "l2":
            stats["l2_evictions"] += 1
            if evicted[1]:
                self._absorb_dirty(core, "l3", evicted[0], stats, home)
        else:
            stats["l3_evictions"] += 1
            if evicted[1]:
                self.dram_writes[home] += 1
                stats["writebacks"] += 1

    # ------------------------------------------------------------------
    # prefetch / flush
    # ------------------------------------------------------------------
    def _hw_prefetch(self, core: int, lines, home: int,
                     stats: Dict[str, int]) -> None:
        node = self.topology.node_of_core(core)
        for line in lines:
            if self.l2[core].contains(line) or self.l1[core].contains(line):
                continue
            stats["hw_prefetch_issued"] += 1
            if not self.l3[node].lookup_update(line):
                self.dram_reads[home] += 1
                stats["hw_prefetch_dram_reads"] += 1
                self._fill_l3(core, line, stats, home)
            self._fill_l2(core, line, stats, home)
            self.prefetched[core].add(line)

    def sw_prefetch(self, core: int, line: int, home: int,
                    stats: Dict[str, int]) -> None:
        node = self.topology.node_of_core(core)
        stats["sw_prefetches"] += 1
        if self.l1[core].contains(line):
            return
        if not self.l2[core].contains(line):
            if not self.l3[node].lookup_update(line):
                self.dram_reads[home] += 1
                stats["hw_prefetch_dram_reads"] += 1
                self._fill_l3(core, line, stats, home)
            self._fill_l2(core, line, stats, home)
        self._fill_l1(core, line, False, stats, home)
        self.prefetched[core].add(line)

    def flush(self, core: int, line: int, home: int,
              stats: Dict[str, int]) -> None:
        node = self.topology.node_of_core(core)
        stats["flushes"] += 1
        dirty = False
        for cache in (self.l1[core], self.l2[core], self.l3[node]):
            flag = cache.invalidate(line)
            dirty = dirty or bool(flag)
        if dirty:
            self.dram_writes[home] += 1
            stats["writebacks"] += 1


class InfiniteCacheMemory:
    """Idealised backend: an infinitely capacious first-level cache.

    Every touched line stays resident forever, so demand traffic is
    exactly the compulsory (first-touch) stream plus non-temporal and
    flush traffic.  Driving the reference interpreter over this backend
    on a machine whose real caches hold the whole working set yields
    the *analytic* expected W and Q for a kernel — including the FP
    reissue overcount, which the interpreter derives from the same
    per-phase DRAM miss counts.
    """

    def __init__(self) -> None:
        self.resident: set = set()
        self.dirty: set = set()
        self.dram_read_lines = 0
        self.dram_write_lines = 0

    def reset_counters(self) -> None:
        self.dram_read_lines = 0
        self.dram_write_lines = 0

    def access(self, core: int, line: int, is_write: bool, nt: bool,
               home: int, stream_id: int, stats: Dict[str, int]) -> None:
        stats["accesses"] += 1
        if nt:
            self.resident.discard(line)
            self.dirty.discard(line)
            self.dram_write_lines += 1
            stats["nt_lines"] += 1
            return
        if line in self.resident:
            stats["l1_hits"] += 1
        else:
            self.resident.add(line)
            self.dram_read_lines += 1
            stats["dram_reads"] += 1
        if is_write:
            self.dirty.add(line)

    def sw_prefetch(self, core: int, line: int, home: int,
                    stats: Dict[str, int]) -> None:
        stats["sw_prefetches"] += 1
        if line not in self.resident:
            self.resident.add(line)
            self.dram_read_lines += 1
            stats["hw_prefetch_dram_reads"] += 1

    def flush(self, core: int, line: int, home: int,
              stats: Dict[str, int]) -> None:
        stats["flushes"] += 1
        if line in self.resident:
            if line in self.dirty:
                self.dram_write_lines += 1
                stats["writebacks"] += 1
            self.resident.discard(line)
            self.dirty.discard(line)
