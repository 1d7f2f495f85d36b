"""Execute tier: batched memory datapath over a core's port state.

:class:`BatchDatapath` runs an :class:`~repro.engine.plan.AccessPlan`
(and, for the nest executor, whole loop-nest descriptors) against the
functional state a :class:`~repro.memory.hierarchy.CorePort` owns — the
caches, the TLB, the prefetch engines, the DRAM IMC counters.  There
is one datapath, the C kernel: when ``engine/_ckernel.c`` loaded, the
hierarchy holds numpy array state and the kernel is its only writer.
Every nest (``repro_execute_nest``), walked flat loop's plan and walked
straight-line access (a one-run plan, ``repro_execute_plan``) runs in
it, and its counter block is applied to Python state in one step per
call (:meth:`BatchDatapath._apply_out`).  Python only reads
that state, resets it in place and grows the prefetched-line table.

Without the kernel (no compiler, ``REPRO_CKERNEL=0``, or a non-LRU
replacement policy) the machine builds its hierarchy with dict/ways
state and nothing here runs: ``Core`` sends every access through the
port's per-line reference calls, exactly as the reference engine does,
and builds no plan.

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
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from ..memory.hierarchy import BatchStats
from ..obs.spans import SPANS
from ..prefetch.arraystate import ArrayStreamPrefetcher, ArrayStridePrefetcher
from ..prefetch.nextline import NextLinePrefetcher
from . import ckernel
from .plan import AccessPlan

if TYPE_CHECKING:  # pragma: no cover
    from ..memory.hierarchy import CorePort

#: phase rows one ``repro_execute_nest`` call may write before it
#: returns at a phase boundary (bounds the row matrix)
NEST_MAX_ROWS = 2048

#: the nest state word where the kernel asks for the fast-forward copy
_NST_FFWD = ckernel.NST["ffwd"]

#: a home's DRAM row in the order trace events list it
_home_row = itemgetter(*(ckernel.HM[name] for name in (
    "demand_reads", "prefetch_reads", "writes", "remote_lines")))


class BatchDatapath:
    """Executes access plans against one core's port state."""

    def __init__(self, port: "CorePort") -> None:
        self.port = port
        self._ctx = None
        self._cmask = None
        #: the fast-forward copy, allocated when a loop first needs it
        self._ff_words = self._ff_dirty = None

    def execute_single(self, line: int, is_write: bool, node) -> BatchStats:
        """One single-line demand access; :meth:`execute_single_c` is
        its body, and the perf ledger times both names."""
        return self.execute_single_c(line, is_write, node)

    def execute_plan(self, plan: AccessPlan) -> BatchStats:
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
            return self._apply_out(self._counters())

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
        # st_*, sm_* and pf_* pointer members point at the stride table's,
        # stream table's and prefetched set's array of the same name
        owners = {"st": st, "sm": sm, "pf": pf}
        for _type, star, name, _n in ckernel.CTX_FIELDS:
            if star and name[:2] in owners:
                setattr(ctx, name,
                        getattr(owners[name[:2]], name[3:]).ctypes.data)
        ctx.st_sites = st._sites_max
        ctx.st_deg = st.degree
        ctx.st_thr = st._threshold
        ctx.st_maxs = st._max_stride
        ctx.sm_trackers = sm._trackers_max
        ctx.sm_deg = sm.degree
        ctx.sm_dist = sm.distance
        ctx.sm_thr = sm._threshold
        ctx.sm_lpp = sm._lines_per_page
        ctx.nl_lpp = nl._lines_per_page
        ctx.page_shift = port._page_shift
        self._regs = np.zeros(1, dtype=np.int64)  # [last_page]
        self._homes = np.zeros((len(hier.dram), ckernel.HM_FIELDS),
                               dtype=np.int64)
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
        ctx.nhomes = len(hier.dram)
        lib = ckernel.lib()
        # per-call invariants hoisted: the bound C functions, the byref
        # wrapper, and the out-array pointer (ndarray.ctypes costs a
        # wrapper object per access, visible at single-access rates)
        self._fn_plan = lib.repro_execute_plan
        self._fn_nest = lib.repro_execute_nest
        self._ctx_ref = ctypes.byref(ctx)
        self._out_ptr = self._out.ctypes.data
        self._cmask = None  # force a flag sync on first use
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
        sites, packed index tables) and ``state`` the walk position the
        kernel advances;
        ``room`` prefetched-set inserts are reserved first.  Returns the
        number of phase rows written into :attr:`nest_rows` /
        :attr:`nest_row_node` (cumulative counter blocks, see
        ``docs/ENGINE.md``).  Nothing is applied to Python state until
        :meth:`apply_nest_totals`.  A call that stopped to ask for the
        fast-forward copy gets it here, and the next call goes on.
        """
        self._pre_call(room)
        n = self._fn_nest(
            self._ctx_ref, nest.hdr_p, nest.nodes_p, nest.sites_p,
            nest.tables.ptr, state.ctypes.data, self._rows_p, self._row_node_p,
            NEST_MAX_ROWS, self._out_ptr,
        )
        self._post_call()
        if state[_NST_FFWD]:
            self._alloc_ffwd()
        return n

    def _alloc_ffwd(self) -> None:
        """Give the kernel its steady-stream fast-forward copy (see
        ``docs/ENGINE.md``), once per datapath and only when a loop is
        eligible: a word per cache way, TLB entry, TLB count, the last
        page, counter and homes cell, per tracker table its columns and
        ``regs``, two lists of prefetched lines with their sizes, and a
        dirty byte per cache way."""
        port = self.port
        ways = sum(cache._tags.size for cache in (port.l1, port.l2, port.l3))
        tlb = port.tlb
        sm, st = self._c_sm, self._c_st
        trackers = sum(
            sum(column.size for column in columns) + engine.regs.size
            for engine, columns in (
                (sm, (sm.keys, sm.last, sm.dirn, sm.conf, sm.front, sm.lruv)),
                (st, (st.keys, st.last, st.strd, st.conf, st.lruv))))
        words = (ways + tlb.l1_pages.size + tlb.l2_pages.size
                 + tlb.regs.size + self._regs.size + ckernel.OUT_COUNT
                 + self._homes.size + trackers
                 + 2 * (1 + ckernel.FF_PF_LINES))
        self._ff_words = np.zeros(words, dtype=np.int64)
        self._ff_dirty = np.zeros(ways, dtype=np.uint8)
        ctx = self._ctx
        ctx.ff_words = self._ff_words.ctypes.data
        ctx.ff_dirty = self._ff_dirty.ctypes.data
        ctx.ff_nwords = words
        ctx.ff_nbytes = ways

    def apply_nest_totals(self) -> BatchStats:
        """Apply a nest call's whole counter block in one step."""
        return self._apply_out(self._counters())

    def execute_single_c(self, line: int, is_write: bool, node) -> BatchStats:
        """One single-line demand access as a one-run plan (stream id
        0, like every straight-line access)."""
        own = self.port.node
        return self.execute_plan(AccessPlan.one_run(
            "store" if is_write else "load", [line],
            own if node is None else node, own))

    def _counters(self) -> dict:
        """The last call's counter block, keyed by its ``OUT`` names."""
        return dict(zip(ckernel.OUT_FIELDS, self._out.tolist()))

    def _apply_out(self, c: dict) -> BatchStats:
        """Apply one kernel invocation's counter block, keyed by its
        ``OUT`` names (:meth:`_counters`), to Python state.

        Derived demand-path CacheStats (every demand miss at a level is
        a fill there), occupancy deltas, TLB stats, per-engine
        issue/useful attribution, IMC CAS counters, and the
        plan-granular trace emission.
        """
        port = self.port
        stats = BatchStats(
            accesses=c["acc"], l1_hits=c["l1h"], l2_hits=c["l2h"],
            l3_hits=c["l3h"], dram_reads=c["drd"], writebacks=c["wbk"],
            nt_lines=c["ntl"], l1_evictions=c["e1"], l2_evictions=c["e2"],
            l3_evictions=c["e3"], sw_prefetches=c["swp"],
            hw_prefetch_issued=c["hwi"], hw_prefetch_dram_reads=c["pfr"],
            prefetch_useful=c["pfu"], remote_dram_lines=c["rem"],
            flushes=c["fls"], tlb_misses=c["tlbm"],
            tlb_walk_cycles=c["tlbw"],
        )
        dm1 = c["dacc"] - c["l1h"]
        dm2 = dm1 - c["l2h"]
        dm3 = dm2 - c["l3h"]
        cs = port.l1.stats
        cs.hits += c["l1h"]
        cs.misses += dm1
        cs.fills += dm1 + c["c1f"]
        cs.evictions += c["e1"]
        cs.dirty_evictions += c["c1d"]
        cs.invalidations += c["c1i"]
        cs = port.l2.stats
        cs.hits += c["l2h"]
        cs.misses += dm2
        cs.fills += dm2 + c["c2f"]
        cs.evictions += c["e2"]
        cs.dirty_evictions += c["c2d"]
        cs.invalidations += c["c2i"]
        cs = port.l3.stats
        cs.hits += c["l3h"] + c["c3h"]
        cs.misses += dm3 + c["c3m"]
        cs.fills += dm3 + c["c3f"]
        cs.evictions += c["e3"]
        cs.dirty_evictions += c["c3d"]
        cs.invalidations += c["c3i"]
        port.l1._resident += c["occ1"]
        port.l2._resident += c["occ2"]
        port.l3._resident += c["occ3"]
        ts = port.tlb.stats
        ts.accesses += c["tacc"]
        ts.l1_hits += c["t1h"]
        ts.l2_hits += c["t2h"]
        ts.walks += c["twalk"]
        if c["nli"]:
            self._c_nl.stats.issued += c["nli"]
        if c["smi"]:
            self._c_sm.stats.issued += c["smi"]
        if c["sti"]:
            self._c_st.stats.issued += c["sti"]
        if c["useful"]:
            for engine in self._c_engines:
                engine.stats.useful += c["useful"]
        homes = {}
        harr = self._homes
        drams = port.hierarchy.dram
        for node, rec in enumerate(harr.tolist()):
            dr, pf_rd, wr, rm = _home_row(rec)
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
