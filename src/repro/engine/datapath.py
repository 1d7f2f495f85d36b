"""Execute tier: batched memory datapath over a core's port state.

:class:`BatchDatapath` runs an :class:`~repro.engine.plan.AccessPlan`
(and, for the nest executor, whole loop-nest descriptors) against the
functional state a :class:`~repro.memory.hierarchy.CorePort` owns — the
caches, the TLB, the prefetch engines, the DRAM IMC counters.  There
is one datapath, the C kernel: when ``engine/_ckernel.c`` loaded, the
hierarchy holds numpy array state and the kernel is its only writer.
Every nest, plan and walked straight-line access runs in it (a one-line
demand access through ``repro_execute_single``, anything else as a
one-run plan), and its counter block is applied to Python state in one
step per call (:meth:`BatchDatapath._apply_out`).  Python only reads
that state, resets it in place and grows the prefetched-line table.

Without the kernel (no compiler, ``REPRO_CKERNEL=0``, a custom
prefetcher or a non-LRU replacement policy) the hierarchy keeps dict
state and nothing here runs: ``Core`` sends every access through the
port's per-line reference calls, exactly as the reference engine does
(``_use_c`` is False and no plan is built).

Equivalence contract (gated by ``repro conformance --diff engine`` and
``tests/engine``): for any plan, the final cache/TLB/prefetcher state,
every :class:`~repro.memory.hierarchy.BatchStats` counter, every
per-level :class:`~repro.memory.cache.CacheStats` field, and every IMC
CAS counter are identical to dispatching the plan's emissions one call
at a time through the port's per-line reference path.

Trace emission on the C datapath is plan-granular: one ``cache``
event, one ``dram`` event per touched home node, and one ``prefetch``
event per kernel call, stamped at the interpreter's phase cursor.
Consumers already aggregate batch events (windowing reads ``phase``
events only), so only the granularity changes, never the sums.
"""

from __future__ import annotations

import ctypes
from typing import TYPE_CHECKING

import numpy as np

from ..memory.hierarchy import BatchStats
from ..obs.spans import SPANS
from ..prefetch.arraystate import ArrayStreamPrefetcher, ArrayStridePrefetcher
from ..prefetch.nextline import NextLinePrefetcher
from . import ckernel

if TYPE_CHECKING:  # pragma: no cover
    from ..memory.hierarchy import CorePort
    from .plan import AccessPlan

#: phase rows one ``repro_execute_nest`` call may write before it
#: returns at a phase boundary (bounds the row matrix)
NEST_MAX_ROWS = 2048


class BatchDatapath:
    """Executes access plans against one core's port state."""

    def __init__(self, port: "CorePort") -> None:
        self.port = port
        # the hierarchy adopts the array backend only once the kernel
        # loaded (cached per process), and only the kernel writes it
        self._use_c = port.hierarchy.array_mode
        self._ctx = None
        self._cmask = None

    def execute_single(self, line: int, is_write: bool, node) -> BatchStats:
        """One single-line demand access (the interpreter's non-loop
        path); :meth:`execute_single_c` is its kernel body, and the
        perf ledger times both names."""
        return self.execute_single_c(line, is_write, node)

    def execute_plan(self, plan: "AccessPlan") -> BatchStats:
        """Run one plan's packed run table through the kernel."""
        with SPANS("engine.execute"):
            # worst case inserts per demand line: degree prefetch
            # candidates per engine (2+2+1) plus the line itself,
            # rounded up
            self._pre_call(6 * plan.total_lines + 8)
            meta_p, lines_p, sids_p = plan.ptrs
            self._fn_plan(self._ctx_ref, plan.nruns, meta_p, lines_p,
                          sids_p, self._out_ptr)
            self._post_call()
            return self._apply_out(self._out.tolist())

    def _build_ctx(self) -> "ckernel.Ctx":
        """Materialise the C context over the port's array state.

        Every pointer references numpy storage that only the kernel
        writes, apart from Python's in-place resets (cache ``clear``,
        TLB ``flush``, prefetcher ``reset``), so the context stays valid
        across busts.  The one reallocating structure — the
        prefetched-line table, which grows on reservation and shrinks
        back on ``clear`` — is re-pointed before every kernel call
        (``_pre_call``).
        """
        port = self.port
        hier = port.hierarchy
        ctx = ckernel.Ctx()
        for i, cache in enumerate((port.l1, port.l2, port.l3)):
            ctx.tags[i] = cache._tags.ctypes.data
            ctx.dirty[i] = cache._adirty.ctypes.data
            ctx.set_mask[i] = cache._set_mask
            ctx.assoc[i] = cache._assoc
        tlb = port.tlb
        ctx.tlb1_pages = tlb.l1_pages.ctypes.data
        ctx.tlb2_pages = tlb.l2_pages.ctypes.data
        ctx.tlb_regs = tlb.regs.ctypes.data
        ctx.tlb1_entries = tlb.config.l1_entries
        ctx.tlb2_entries = tlb.config.l2_entries
        ctx.walk_latency = tlb.config.walk_latency_cycles
        pf = port._prefetched
        ctx.pf_slots = pf.slots.ctypes.data
        ctx.pf_regs = pf.regs.ctypes.data
        ctx.pf_touched = pf.touched.ctypes.data
        ctx.pf_mask = pf._mask
        self._pf_ref = pf.slots
        nl = sm = st = None
        for engine in hier.prefetchers_of(port.core_id):
            if isinstance(engine, ArrayStridePrefetcher):
                st = engine
            elif isinstance(engine, ArrayStreamPrefetcher):
                sm = engine
            elif isinstance(engine, NextLinePrefetcher):
                nl = engine
        self._c_nl, self._c_sm, self._c_st = nl, sm, st
        ctx.st_keys = st.keys.ctypes.data
        ctx.st_last = st.last.ctypes.data
        ctx.st_strd = st.strd.ctypes.data
        ctx.st_conf = st.conf.ctypes.data
        ctx.st_lruv = st.lruv.ctypes.data
        ctx.st_regs = st.regs.ctypes.data
        ctx.st_sites = st._sites_max
        ctx.st_deg = st.degree
        ctx.st_thr = st._threshold
        ctx.st_maxs = st._max_stride
        ctx.sm_keys = sm.keys.ctypes.data
        ctx.sm_last = sm.last.ctypes.data
        ctx.sm_dirn = sm.dirn.ctypes.data
        ctx.sm_conf = sm.conf.ctypes.data
        ctx.sm_front = sm.front.ctypes.data
        ctx.sm_lruv = sm.lruv.ctypes.data
        ctx.sm_regs = sm.regs.ctypes.data
        ctx.sm_trackers = sm._trackers_max
        ctx.sm_deg = sm.degree
        ctx.sm_dist = sm.distance
        ctx.sm_thr = sm._threshold
        ctx.sm_lpp = sm._lines_per_page
        ctx.nl_lpp = nl._lines_per_page
        ctx.page_shift = port._page_shift
        self._regs = np.zeros(1, dtype=np.int64)  # [last_page]
        self._homes = np.zeros((len(hier.dram), 4), dtype=np.int64)
        self._out = np.zeros(ckernel.OUT_COUNT, dtype=np.int64)
        #: caller-owned phase-row matrix of repro_execute_nest: one
        #: cumulative counter block per phase
        self.nest_rows = np.zeros((NEST_MAX_ROWS, ckernel.OUT_COUNT),
                                  dtype=np.int64)
        self.nest_row_node = np.zeros(NEST_MAX_ROWS, dtype=np.int64)
        self._rows_p = self.nest_rows.ctypes.data
        self._row_node_p = self.nest_row_node.ctypes.data
        ctx.regs = self._regs.ctypes.data
        ctx.homes = self._homes.ctypes.data
        lib = ckernel.lib()
        # per-call invariants hoisted: the bound C functions, the byref
        # wrapper, and the out-array pointer (ndarray.ctypes costs a
        # wrapper object per access, visible at single-access rates)
        self._fn_plan = lib.repro_execute_plan
        self._fn_single = lib.repro_execute_single
        self._fn_nest = lib.repro_execute_nest
        self._ctx_ref = ctypes.byref(ctx)
        self._out_ptr = self._out.ctypes.data
        self._cmask = None  # force a flag sync on first use
        self._hit_stats = {}
        self._ctx = ctx
        return ctx

    def _sync_flags(self) -> None:
        """Refresh the per-call enable flags from the simulated MSR."""
        control = self.port.hierarchy.prefetch_control
        mask = control.mask
        if mask == self._cmask:
            return
        self._cmask = mask
        ctx = self._ctx
        ctx.nl_on = 1 if control.is_enabled(self._c_nl.kind) else 0
        ctx.sm_on = 1 if control.is_enabled(self._c_sm.kind) else 0
        ctx.st_on = 1 if control.is_enabled(self._c_st.kind) else 0
        # useful-hit attribution goes to every *enabled* engine, in the
        # per-core list order, exactly like the reference observe loop
        self._c_engines = [
            engine
            for engine in self.port.hierarchy.prefetchers_of(self.port.core_id)
            if control.is_enabled(engine.kind)
        ]

    def _pre_call(self, room: int) -> "ckernel.Ctx":
        """Shared setup before a kernel entry: context, flags, pf-set
        capacity (the only place the table grows), and the TLB page
        cursor."""
        ctx = self._ctx
        if ctx is None:
            ctx = self._build_ctx()
        self._sync_flags()
        port = self.port
        pf = port._prefetched
        pf.ensure_room(room)
        slots = pf.slots
        if slots is not self._pf_ref:
            # reallocated, with its touched map — by ensure_room here,
            # a clear() that shrank a grown table, or a restore()
            self._pf_ref = slots
            ctx.pf_slots = slots.ctypes.data
            ctx.pf_touched = pf.touched.ctypes.data
            ctx.pf_mask = pf._mask
        self._regs[0] = port._last_page
        return ctx

    def _post_call(self) -> None:
        self.port._last_page = int(self._regs[0])

    def execute_nest(self, nest, state: np.ndarray, room: int) -> int:
        """One resumable ``repro_execute_nest`` call over ``nest``.

        ``nest`` carries the bound descriptor pointers (header, nodes,
        sites) and ``state`` the walk position the kernel advances;
        ``room`` prefetched-set inserts are reserved first.  Returns the
        number of phase rows written into :attr:`nest_rows` /
        :attr:`nest_row_node` (cumulative counter blocks, see
        ``docs/ENGINE.md``).  Nothing is applied to Python state until
        :meth:`apply_nest_totals`.
        """
        self._pre_call(room)
        n = self._fn_nest(
            self._ctx_ref, nest.hdr_p, nest.nodes_p, nest.sites_p,
            state.ctypes.data, self._rows_p, self._row_node_p,
            NEST_MAX_ROWS, self._out_ptr,
        )
        self._post_call()
        return n

    def apply_nest_totals(self) -> BatchStats:
        """Apply a nest call's whole counter block in one step."""
        return self._apply_out(self._out.tolist())

    def execute_single_c(self, line: int, is_write: bool, node) -> BatchStats:
        """One single-line demand access through the compiled kernel."""
        port = self.port
        rhome = port.node if node is None else node
        self._pre_call(8)
        self._fn_single(self._ctx_ref, line, 1 if is_write else 0, rhome,
                        1 if rhome != port.node else 0, self._out_ptr)
        self._post_call()
        o = self._out.tolist()
        if o[1] == 1 and o[11] == 0:
            # pure L1 hit with no hardware prefetch fill: nothing was
            # filled or evicted anywhere, and the only engine that can
            # have observed is the stride table (train-on-hits), whose
            # candidates — if any — were all resident (issued-only)
            port.l1.stats.hits += 1
            tacc = o[37]
            if tacc:
                ts = port.tlb.stats
                ts.accesses += tacc
                ts.l1_hits += o[38]
                ts.l2_hits += o[39]
                ts.walks += o[40]
            sti = o[35]
            if sti:
                self._c_st.stats.issued += sti
            tlbm = o[16]
            tlbw = o[17]
            key = (tlbm, tlbw)
            stats = self._hit_stats.get(key)
            if stats is None:
                stats = self._hit_stats[key] = BatchStats(
                    accesses=1, l1_hits=1, tlb_misses=tlbm,
                    tlb_walk_cycles=tlbw,
                )
            tot = port.totals
            tot.accesses += 1
            tot.l1_hits += 1
            tot.tlb_misses += tlbm
            tot.tlb_walk_cycles += tlbw
            if port.bus.enabled:
                port._emit_batch(stats, rhome)
            return stats
        return self._apply_out(o)

    def _apply_out(self, o: list) -> BatchStats:
        """Apply one kernel invocation's counter block to Python state.

        Derived demand-path CacheStats (every demand miss at a level is
        a fill there), occupancy deltas, TLB stats, per-engine
        issue/useful attribution, IMC CAS counters, and the
        plan-granular trace emission.
        """
        (acc, l1h, l2h, l3h, drd, wbk, ntl,
         e1, e2, e3, swp, hwi, pfr, pfu, rem, fls,
         tlbm, tlbw, dacc,
         c1f, c1d, c1i, c2f, c2d, c2i,
         c3h, c3m, c3f, c3d, c3i,
         occ1, occ2, occ3,
         nli, smi, sti, useful,
         tacc, t1h, t2h, twalk) = o
        port = self.port
        stats = BatchStats(
            accesses=acc, l1_hits=l1h, l2_hits=l2h, l3_hits=l3h,
            dram_reads=drd, writebacks=wbk, nt_lines=ntl,
            l1_evictions=e1, l2_evictions=e2, l3_evictions=e3,
            sw_prefetches=swp, hw_prefetch_issued=hwi,
            hw_prefetch_dram_reads=pfr, prefetch_useful=pfu,
            remote_dram_lines=rem, flushes=fls,
            tlb_misses=tlbm, tlb_walk_cycles=tlbw,
        )
        dm1 = dacc - l1h
        dm2 = dm1 - l2h
        dm3 = dm2 - l3h
        cs = port.l1.stats
        cs.hits += l1h
        cs.misses += dm1
        cs.fills += dm1 + c1f
        cs.evictions += e1
        cs.dirty_evictions += c1d
        cs.invalidations += c1i
        cs = port.l2.stats
        cs.hits += l2h
        cs.misses += dm2
        cs.fills += dm2 + c2f
        cs.evictions += e2
        cs.dirty_evictions += c2d
        cs.invalidations += c2i
        cs = port.l3.stats
        cs.hits += l3h + c3h
        cs.misses += dm3 + c3m
        cs.fills += dm3 + c3f
        cs.evictions += e3
        cs.dirty_evictions += c3d
        cs.invalidations += c3i
        port.l1._resident += occ1
        port.l2._resident += occ2
        port.l3._resident += occ3
        ts = port.tlb.stats
        ts.accesses += tacc
        ts.l1_hits += t1h
        ts.l2_hits += t2h
        ts.walks += twalk
        if nli:
            self._c_nl.stats.issued += nli
        if smi:
            self._c_sm.stats.issued += smi
        if sti:
            self._c_st.stats.issued += sti
        if useful:
            for engine in self._c_engines:
                engine.stats.useful += useful
        homes = {}
        harr = self._homes
        drams = port.hierarchy.dram
        for node, rec in enumerate(harr.tolist()):
            dr, pf_rd, wr, rm = rec
            if dr or pf_rd or wr or rm:
                counters = drams[node].counters
                counters.cas_reads += dr + pf_rd
                counters.cas_writes += wr
                homes[node] = [dr, pf_rd, wr, rm]
        if homes:
            harr.fill(0)
        port.totals.merge(stats)
        if port.bus.enabled:
            port.emit_plan_batch(stats, homes)
        return stats
