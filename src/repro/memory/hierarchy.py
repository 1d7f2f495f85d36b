"""Multi-level memory hierarchy with per-core ports.

Layout mirrors the paper's Xeons: private L1/L2 per core, a shared L3
per socket, and one DRAM node (with IMC counters) per socket.  The L3 is
mostly-inclusive (fills propagate to all levels; evictions are
independent per level), matching modern Intel parts closely enough for
traffic accounting while keeping the simulation fast.

Every core gets a :class:`CorePort`, the object the interpreter drives.
A port resolves demand accesses through its private caches and socket
L3, routes DRAM traffic to the *home node of the data* (set by the NUMA
allocator), triggers hardware prefetchers on L1 misses, and returns
exact per-batch statistics for the cycle model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from ..obs.spans import SPANS
from ..trace.bus import TraceBus
from ..trace.events import CACHE, DRAM, PREFETCH, TraceEvent
from ..prefetch.base import Prefetcher
from ..prefetch.control import PrefetchControl
from ..prefetch.nextline import NextLinePrefetcher
from ..prefetch.stream import StreamPrefetcher
from ..prefetch.stride import StridePrefetcher
from ..prefetch.arraystate import ArrayStreamPrefetcher, ArrayStridePrefetcher
from .cache import Cache, CacheConfig
from .dram import DramConfig, DramNode
from .numa import NumaConfig, Topology
from .prefetched import PrefetchedSet
from .tlb import ArrayTlb, Tlb, TlbConfig


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache/DRAM geometry for one machine."""

    l1: CacheConfig
    l2: CacheConfig
    l3: CacheConfig
    dram: DramConfig
    numa: NumaConfig = field(default_factory=NumaConfig)
    tlb: TlbConfig = field(default_factory=TlbConfig)

    def __post_init__(self) -> None:
        line = self.l1.line_bytes
        if self.l2.line_bytes != line or self.l3.line_bytes != line:
            raise ConfigurationError("all cache levels must share one line size")
        if self.dram.line_bytes != line:
            raise ConfigurationError("DRAM line size must match the caches")
        if not self.l1.size_bytes <= self.l2.size_bytes <= self.l3.size_bytes:
            raise ConfigurationError("expected L1 <= L2 <= L3 capacities")

    @property
    def line_bytes(self) -> int:
        return self.l1.line_bytes


@dataclass
class BatchStats:
    """Exact event counts for one batch of demand accesses."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    dram_reads: int = 0          # demand misses served by DRAM (incl. RFO)
    writebacks: int = 0          # dirty L3 evictions reaching DRAM
    nt_lines: int = 0            # non-temporal store lines
    l1_evictions: int = 0        # lines displaced from L1 (clean or dirty)
    l2_evictions: int = 0
    l3_evictions: int = 0
    sw_prefetches: int = 0
    hw_prefetch_issued: int = 0
    hw_prefetch_dram_reads: int = 0
    prefetch_useful: int = 0     # demand hits on prefetched lines
    remote_dram_lines: int = 0   # DRAM lines homed on a remote node
    flushes: int = 0
    tlb_misses: int = 0          # page walks triggered
    tlb_walk_cycles: int = 0     # latency those walks cost

    def merge(self, other: "BatchStats") -> None:
        self.accesses += other.accesses
        self.l1_hits += other.l1_hits
        self.l2_hits += other.l2_hits
        self.l3_hits += other.l3_hits
        self.dram_reads += other.dram_reads
        self.writebacks += other.writebacks
        self.nt_lines += other.nt_lines
        self.l1_evictions += other.l1_evictions
        self.l2_evictions += other.l2_evictions
        self.l3_evictions += other.l3_evictions
        self.sw_prefetches += other.sw_prefetches
        self.hw_prefetch_issued += other.hw_prefetch_issued
        self.hw_prefetch_dram_reads += other.hw_prefetch_dram_reads
        self.prefetch_useful += other.prefetch_useful
        self.remote_dram_lines += other.remote_dram_lines
        self.flushes += other.flushes
        self.tlb_misses += other.tlb_misses
        self.tlb_walk_cycles += other.tlb_walk_cycles

    def as_dict(self) -> dict:
        """Flat counter dict (trace events, JSON reports)."""
        return {
            "accesses": self.accesses,
            "l1_hits": self.l1_hits,
            "l2_hits": self.l2_hits,
            "l3_hits": self.l3_hits,
            "dram_reads": self.dram_reads,
            "writebacks": self.writebacks,
            "nt_lines": self.nt_lines,
            "l1_evictions": self.l1_evictions,
            "l2_evictions": self.l2_evictions,
            "l3_evictions": self.l3_evictions,
            "sw_prefetches": self.sw_prefetches,
            "hw_prefetch_issued": self.hw_prefetch_issued,
            "hw_prefetch_dram_reads": self.hw_prefetch_dram_reads,
            "prefetch_useful": self.prefetch_useful,
            "remote_dram_lines": self.remote_dram_lines,
            "flushes": self.flushes,
            "tlb_misses": self.tlb_misses,
            "tlb_walk_cycles": self.tlb_walk_cycles,
        }

    @property
    def dram_lines_total(self) -> int:
        """All DRAM line transfers caused by this batch."""
        return (self.dram_reads + self.writebacks + self.nt_lines
                + self.hw_prefetch_dram_reads)


def default_prefetchers() -> List[Prefetcher]:
    """The engine set present on the simulated Xeons."""
    return [
        NextLinePrefetcher(),
        StreamPrefetcher(),
        StridePrefetcher(),
    ]


def _array_prefetchers() -> List[Prefetcher]:
    """The same set over the array state the C kernel writes."""
    return [
        NextLinePrefetcher(),
        ArrayStreamPrefetcher(),
        ArrayStridePrefetcher(),
    ]


class MemoryHierarchy:
    """All caches and DRAM nodes of one machine.

    ``array`` selects the numpy array state the compiled C datapath
    kernel (:mod:`repro.engine.ckernel`) shares: array caches, the
    array prefetchers and, per port, an :class:`ArrayTlb` and a
    :class:`PrefetchedSet`.  The kernel is then the only writer of that
    state: the port's Python transitions (``access_lines``,
    ``software_prefetch``, ``flush_lines``) raise on it, while the
    stats, the in-place resets of :meth:`bust` and read-only inspection
    stay available.  Only LRU hierarchies with the stock prefetcher set
    have an array form.  The owning machine decides once, when it is
    built (:class:`~repro.machine.machine.Machine`).
    """

    def __init__(self, config: HierarchyConfig, topology: Topology,
                 prefetch_factory: Optional[Callable[[], List[Prefetcher]]] = None,
                 prefetch_control: Optional[PrefetchControl] = None,
                 array: bool = False) -> None:
        if array and prefetch_factory is not None:
            raise ConfigurationError(
                "array state needs the stock prefetcher set")
        factory = (_array_prefetchers if array
                   else prefetch_factory or default_prefetchers)
        self.config = config
        self.topology = topology
        #: trace event bus shared by every port (and the owning machine);
        #: disabled — hence zero-overhead — until a sink is attached
        self.bus = TraceBus()
        self.prefetch_control = prefetch_control or PrefetchControl()
        #: True when every cache, TLB and prefetcher holds the numpy
        #: array state the compiled datapath kernel shares; an array
        #: cache raises ``ConfigurationError`` on a non-LRU level
        self.array_mode = array
        backend = "array" if array else None
        ncores = topology.total_cores
        self.l1 = [Cache(config.l1, backend=backend) for _ in range(ncores)]
        self.l2 = [Cache(config.l2, backend=backend) for _ in range(ncores)]
        self.l3 = [Cache(config.l3, backend=backend)
                   for _ in range(topology.sockets)]
        self.dram = [DramNode(node, config.dram) for node in range(topology.sockets)]
        self._prefetchers: List[List[Prefetcher]] = [factory() for _ in range(ncores)]
        self._ports: Dict[int, CorePort] = {}

    def port(self, core_id: int) -> "CorePort":
        """The (cached) access port of one core."""
        if core_id not in self._ports:
            if not 0 <= core_id < self.topology.total_cores:
                raise ConfigurationError(f"no core {core_id} in topology")
            self._ports[core_id] = CorePort(self, core_id)
        return self._ports[core_id]

    def prefetchers_of(self, core_id: int) -> List[Prefetcher]:
        return self._prefetchers[core_id]

    def bust(self) -> None:
        """Drop every cache and all prefetcher training (cheap cold-state
        reset; the measurement protocols additionally support a genuine
        buffer-sweep bust through the ISA)."""
        with SPANS("cache.bust"):
            for cache in self.l1 + self.l2 + self.l3:
                cache.clear()
            with SPANS("prefetch.reset"):
                for engines in self._prefetchers:
                    for engine in engines:
                        engine.reset()
            for port in self._ports.values():
                port.clear_prefetched()
                port.tlb.reset()
                port._last_page = -1

    def writeback_all(self) -> int:
        """Write every dirty line back to its home DRAM node and clean
        the caches (a wbinvd analogue); returns lines written."""
        with SPANS("cache.writeback"):
            written = 0
            seen = set()
            for cache in self.l1 + self.l2 + self.l3:
                for line in list(cache.dirty_lines()):
                    if line not in seen:
                        seen.add(line)
                        written += 1
                cache.clear()
            if written:
                # home-node attribution is approximated to node 0 for the
                # bulk flush; experiments never measure across this call.
                self.dram[0].write_lines(written)
            return written


class CorePort:
    """One core's view of the hierarchy; drives all demand traffic."""

    def __init__(self, hierarchy: MemoryHierarchy, core_id: int) -> None:
        self.hierarchy = hierarchy
        self.bus = hierarchy.bus
        self.core_id = core_id
        self.node = hierarchy.topology.node_of_core(core_id)
        self.l1 = hierarchy.l1[core_id]
        self.l2 = hierarchy.l2[core_id]
        self.l3 = hierarchy.l3[self.node]
        if hierarchy.array_mode:
            self.tlb = ArrayTlb(hierarchy.config.tlb)
            self._prefetched = PrefetchedSet()
        else:
            self.tlb = Tlb(hierarchy.config.tlb)
            self._prefetched = set()
        self._page_shift = (
            hierarchy.config.tlb.page_bytes.bit_length()
            - hierarchy.config.line_bytes.bit_length()
        )
        self._last_page = -1
        self.totals = BatchStats()

    # ------------------------------------------------------------------
    # demand accesses
    # ------------------------------------------------------------------
    def access_lines(self, lines: Sequence[int], is_write: bool,
                     nt: bool = False, node: Optional[int] = None,
                     stream_id: int = 0) -> BatchStats:
        """Resolve a batch of demand line accesses.

        ``node`` is the NUMA home of the data (defaults to the core's own
        node); ``stream_id`` identifies the access site for the stride
        prefetcher.  Returns the batch's exact event counts.
        """
        stats = BatchStats()
        home = self.node if node is None else node
        with SPANS("mem.demand"):
            if nt:
                self._nt_store_lines(lines, home, stats)
            else:
                self._demand_lines(lines, is_write, home, stream_id, stats)
        self.totals.merge(stats)
        if self.bus.enabled:
            self._emit_batch(stats, home)
        return stats

    def _emit_batch(self, stats: BatchStats, home: int) -> None:
        """Publish one port call's counters on the trace bus.

        Emission is batch-granular (one event set per port call, not
        per line) so that tracing a run costs a constant factor.
        """
        self.emit_plan_batch(stats, {home: [
            stats.dram_reads, stats.hw_prefetch_dram_reads,
            stats.writebacks + stats.nt_lines, stats.remote_dram_lines,
        ]})

    def emit_plan_batch(self, stats: BatchStats,
                        homes: Dict[int, List[int]]) -> None:
        """Publish one batch's counters on the trace bus.

        One CACHE event for the batch, one DRAM event per home node
        touched (``homes`` maps node -> [demand_reads, prefetch_reads,
        writes, remote_lines]), and one PREFETCH snapshot, stamped at
        the *phase* cursor the interpreter maintains.  The C datapath
        publishes one executed plan or nest call at a time, the
        per-line walk one port call (:meth:`_emit_batch`): the
        granularity differs, the aggregate args do not — consumers
        (TraceCollector, timeline windows) only sum batch-event args
        and read the last PREFETCH snapshot.
        """
        bus = self.bus
        ts = bus.cursor
        core = self.core_id
        bus.emit(TraceEvent(CACHE, f"core{core}", ts, core=core, args={
            "accesses": stats.accesses,
            "l1_hits": stats.l1_hits,
            "l2_hits": stats.l2_hits,
            "l3_hits": stats.l3_hits,
            "l1_evictions": stats.l1_evictions,
            "l2_evictions": stats.l2_evictions,
            "l3_evictions": stats.l3_evictions,
            "tlb_misses": stats.tlb_misses,
            "flushes": stats.flushes,
        }))
        for home, rec in homes.items():
            demand_reads, prefetch_reads, writes, remote = rec
            reads = demand_reads + prefetch_reads
            if reads or writes:
                bus.emit(TraceEvent(DRAM, f"node{home}", ts, core=core, args={
                    "reads": reads,
                    "writes": writes,
                    "demand_reads": demand_reads,
                    "prefetch_reads": prefetch_reads,
                    "remote_lines": remote,
                }))
        if stats.hw_prefetch_issued or stats.sw_prefetches or stats.prefetch_useful:
            engines = {
                engine.kind: engine.stats.as_dict()
                for engine in self.hierarchy.prefetchers_of(core)
            }
            bus.emit(TraceEvent(PREFETCH, f"core{core}", ts, core=core, args={
                "hw_issued": stats.hw_prefetch_issued,
                "hw_dram_reads": stats.hw_prefetch_dram_reads,
                "sw_prefetches": stats.sw_prefetches,
                "useful": stats.prefetch_useful,
                "engines": engines,
            }))

    def _demand_lines(self, lines, is_write: bool, home: int,
                      stream_id: int, stats: BatchStats) -> None:
        l1 = self.l1
        l2 = self.l2
        l3 = self.l3
        prefetched = self._prefetched
        engines = [
            engine
            for engine in self.hierarchy.prefetchers_of(self.core_id)
            if self.hierarchy.prefetch_control.is_enabled(engine.kind)
        ]
        hit_engines = [engine for engine in engines if engine.train_on_hits]
        remote = home != self.node
        dram = self.hierarchy.dram[home]
        tlb = self.tlb
        page_shift = self._page_shift
        for line in lines:
            stats.accesses += 1
            page = line >> page_shift
            if page != self._last_page:
                self._last_page = page
                walk = tlb.translate_page(page)
                if walk:
                    stats.tlb_misses += 1
                    stats.tlb_walk_cycles += walk
            if l1.lookup_update(line, is_write):
                stats.l1_hits += 1
                for engine in hit_engines:
                    candidates = engine.observe(line, False, stream_id)
                    if candidates:
                        self._hw_prefetch(candidates, home, stats)
                continue
            # L1 miss: resolve below, then train the prefetchers
            if l2.lookup_update(line):
                stats.l2_hits += 1
                if line in prefetched:
                    prefetched.discard(line)
                    stats.prefetch_useful += 1
                    for engine in engines:
                        engine.stats.useful += 1
            elif l3.lookup_update(line):
                stats.l3_hits += 1
                if line in prefetched:
                    prefetched.discard(line)
                    stats.prefetch_useful += 1
                self._fill_l2(line, stats, dram)
            else:
                dram.read_line()
                stats.dram_reads += 1
                if remote:
                    stats.remote_dram_lines += 1
                self._fill_l3(line, stats, dram)
                self._fill_l2(line, stats, dram)
            self._fill_l1(line, is_write, stats, dram)
            if engines:
                for engine in engines:
                    candidates = engine.observe(line, True, stream_id)
                    if candidates:
                        self._hw_prefetch(candidates, home, stats)

    def _nt_store_lines(self, lines, home: int, stats: BatchStats) -> None:
        """Streaming stores: bypass the hierarchy, invalidate stale
        copies, and write combined lines straight to DRAM (no RFO)."""
        dram = self.hierarchy.dram[home]
        remote = home != self.node
        page_shift = self._page_shift
        for line in lines:
            stats.accesses += 1
            page = line >> page_shift
            if page != self._last_page:
                self._last_page = page
                walk = self.tlb.translate_page(page)
                if walk:
                    stats.tlb_misses += 1
                    stats.tlb_walk_cycles += walk
            self.l1.invalidate(line)
            self.l2.invalidate(line)
            self.l3.invalidate(line)
            dram.write_line()
            stats.nt_lines += 1
            if remote:
                stats.remote_dram_lines += 1

    # ------------------------------------------------------------------
    # fill / writeback chains
    # ------------------------------------------------------------------
    def _fill_l1(self, line: int, dirty: bool, stats: BatchStats, dram) -> None:
        evicted = self.l1.fill(line, dirty=dirty)
        if evicted is not None:
            stats.l1_evictions += 1
            if evicted[1]:
                self._absorb_dirty(self.l2, evicted[0], stats, dram)

    def _fill_l2(self, line: int, stats: BatchStats, dram) -> None:
        evicted = self.l2.fill(line)
        if evicted is not None:
            stats.l2_evictions += 1
            if evicted[1]:
                self._absorb_dirty(self.l3, evicted[0], stats, dram)

    def _fill_l3(self, line: int, stats: BatchStats, dram) -> None:
        evicted = self.l3.fill(line)
        if evicted is not None:
            stats.l3_evictions += 1
            if evicted[1]:
                dram.write_line()
                stats.writebacks += 1

    def _absorb_dirty(self, lower: Cache, line: int, stats: BatchStats, dram) -> None:
        """Push a dirty eviction into ``lower``; cascade if it evicts."""
        if lower.mark_dirty(line):
            return
        evicted = lower.fill(line, dirty=True)
        if evicted is None:
            return
        if lower is self.l2:
            stats.l2_evictions += 1
            if evicted[1]:
                self._absorb_dirty(self.l3, evicted[0], stats, dram)
        else:
            stats.l3_evictions += 1
            if evicted[1]:
                dram.write_line()
                stats.writebacks += 1

    # ------------------------------------------------------------------
    # prefetch / flush
    # ------------------------------------------------------------------
    def _hw_prefetch(self, lines, home: int, stats: BatchStats) -> None:
        """Bring prefetch candidates into L2+L3 (never L1)."""
        dram = self.hierarchy.dram[home]
        with SPANS("mem.prefetch.hw"):
            self._hw_prefetch_lines(lines, dram, stats)

    def _hw_prefetch_lines(self, lines, dram, stats: BatchStats) -> None:
        for line in lines:
            if self.l2.contains(line) or self.l1.contains(line):
                continue
            stats.hw_prefetch_issued += 1
            if not self.l3.lookup_update(line):
                dram.read_line()
                stats.hw_prefetch_dram_reads += 1
                self._fill_l3(line, stats, dram)
            self._fill_l2(line, stats, dram)
            self._prefetched.add(line)

    def software_prefetch(self, lines, node: Optional[int] = None) -> BatchStats:
        """prefetcht0: bring lines into every level without an access."""
        stats = BatchStats()
        home = self.node if node is None else node
        dram = self.hierarchy.dram[home]
        with SPANS("mem.prefetch.sw"):
            for line in lines:
                stats.sw_prefetches += 1
                if self.l1.contains(line):
                    continue
                if not self.l2.contains(line):
                    if not self.l3.lookup_update(line):
                        dram.read_line()
                        stats.hw_prefetch_dram_reads += 1
                        self._fill_l3(line, stats, dram)
                    self._fill_l2(line, stats, dram)
                self._fill_l1(line, False, stats, dram)
                self._prefetched.add(line)
        self.totals.merge(stats)
        if self.bus.enabled:
            self._emit_batch(stats, home)
        return stats

    def flush_lines(self, lines, node: Optional[int] = None) -> BatchStats:
        """clflush: drop lines everywhere, writing dirty data back."""
        stats = BatchStats()
        home = self.node if node is None else node
        dram = self.hierarchy.dram[home]
        with SPANS("mem.flush"):
            for line in lines:
                stats.flushes += 1
                dirty = False
                for cache in (self.l1, self.l2, self.l3):
                    flag = cache.invalidate(line)
                    dirty = dirty or bool(flag)
                if dirty:
                    dram.write_line()
                    stats.writebacks += 1
        self.totals.merge(stats)
        if self.bus.enabled:
            self._emit_batch(stats, home)
        return stats

    def clear_prefetched(self) -> None:
        self._prefetched.clear()
