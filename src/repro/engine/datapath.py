"""Execute tier: batched memory datapath over a core's port state.

:class:`BatchDatapath` runs an :class:`~repro.engine.plan.AccessPlan`
through the same functional state a :class:`~repro.memory.hierarchy.
CorePort` owns — the per-set line dicts of L1/L2/L3, the TLB, the
prefetch engines, the DRAM IMC counters — but processes whole line
arrays per segment with the per-line dict operations inlined and every
counter accumulated in locals, flushed once per plan.

Equivalence contract (gated by ``repro conformance --diff engine`` and
``tests/engine``): for any plan, the final cache/TLB/prefetcher state,
every :class:`~repro.memory.hierarchy.BatchStats` counter, every
per-level :class:`~repro.memory.cache.CacheStats` field, and every IMC
CAS counter are identical to dispatching the plan's emissions one call
at a time through the port's per-line reference path.  The inlined
branches below mirror ``CorePort._demand_lines`` / ``_nt_store_lines``
/ ``software_prefetch`` / ``flush_lines`` and the fill/absorb chains
statement for statement; order-independent integer counters are summed
locally and applied in bulk.

Three compile-tier precomputations feed the loop (see
:mod:`repro.engine.plan`):

* per-segment **page-transition lists** replace the per-line
  ``page != last_page`` check — only a segment's first line can match
  the runtime TLB cursor, every internal transition is walked
  unconditionally in precomputed order,
* **resolved homes** and the plan-level ``single_home`` flag skip the
  per-segment DRAM-home bookkeeping for the common one-node case,
* integer **opcodes** replace string kind dispatch.

When the enabled prefetch engines are exactly the stock trio
(next-line, streamer, IP-stride — in canonical order, stock training
flags), their ``observe`` bodies are *inlined* into the demand loop
with the stride site state hoisted per segment and table ticks kept in
locals; this is a fast-engine-only optimisation (the reference path
keeps calling ``observe``), preserved bit-for-bit by construction and
checked by the cross-engine gates.  Any other engine set — ablation
subclasses, custom factories, reordered trios — takes the generic
observe-call loop.

When any cache level does not use the dict-LRU fast representation
(e.g. the L3 replacement-policy ablation), the datapath falls back to
segment-granular port calls — still one call per plan segment instead
of one per emission, and still plan-cache amortised.

Trace emission is plan-granular: one ``cache`` event, one ``dram``
event per touched home node, and one ``prefetch`` event per executed
plan, stamped at the interpreter's phase cursor.  Consumers already
aggregate batch events (windowing reads ``phase`` events only), so
only the granularity changes, never the sums.
"""

from __future__ import annotations

import ctypes
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from ..memory.hierarchy import BatchStats
from ..obs.spans import SPANS
from ..prefetch.arraystate import ArrayStreamPrefetcher, ArrayStridePrefetcher
from ..prefetch.nextline import NextLinePrefetcher
from ..prefetch.stream import StreamPrefetcher, _PageTracker
from ..prefetch.stride import StridePrefetcher, _SiteState
from . import ckernel

if TYPE_CHECKING:  # pragma: no cover
    from ..memory.hierarchy import CorePort
    from .plan import AccessPlan

#: pop() default distinguishing "absent" from any stored dirty bit
_MISS = object()

#: phase rows one ``repro_execute_nest`` call may write before it
#: returns at a phase boundary (bounds the row matrix)
NEST_MAX_ROWS = 2048


class BatchDatapath:
    """Executes access plans against one core's port state."""

    def __init__(self, port: "CorePort") -> None:
        self.port = port
        # the inlined loop requires every level in the dict-LRU
        # representation; anything else (policy ablations, custom
        # backends) takes the exact segment-call fallback
        self._inline = port.l1._fast and port.l2._fast and port.l3._fast
        # array-backend hierarchies execute plans through the compiled C
        # kernel sharing the same numpy state; the hierarchy only adopts
        # the array backend when the kernel loaded, but keep the guard so
        # a REPRO_CKERNEL flip mid-process degrades instead of crashing
        self._use_c = port.hierarchy.array_mode and ckernel.lib() is not None
        # symbolic (size-polymorphic) plans carry no segment list, so
        # they are only legal on the inline or compiled datapaths; the
        # segment-granular fallback needs concrete plans
        self._symbolic_ok = self._inline or self._use_c
        # engine specialization cached per control-mask value (the
        # enabled set only changes when the simulated MSR is written)
        self._spec = None
        self._ctx = None
        self._cmask = None

    def _engine_spec(self):
        """(mask, engines, fastpf, nl, sm, st) for the current MSR mask.

        ``fastpf`` is True when the enabled engines are exactly the
        stock trio (any subset, canonical order, stock training flags)
        so their observe bodies may be inlined; ``nl``/``sm``/``st``
        are the matched instances.  The per-core prefetcher list is
        fixed at machine construction, so the result is a pure function
        of the control mask and can be cached on it.
        """
        port = self.port
        control = port.hierarchy.prefetch_control
        mask = control.mask
        spec = self._spec
        if spec is not None and spec[0] == mask:
            return spec
        engines = [
            engine
            for engine in port.hierarchy.prefetchers_of(port.core_id)
            if control.is_enabled(engine.kind)
        ]
        nl = sm = st = None
        fastpf = True
        for engine in engines:
            te = type(engine)
            if te is NextLinePrefetcher and nl is None \
                    and not engine.train_on_hits:
                nl = engine
            elif te is StreamPrefetcher and sm is None \
                    and not engine.train_on_hits:
                sm = engine
            elif te is StridePrefetcher and st is None \
                    and engine.train_on_hits:
                st = engine
            else:
                fastpf = False
                break
        if fastpf and engines != [e for e in (nl, sm, st) if e is not None]:
            fastpf = False
        if not fastpf:
            nl = sm = st = None
        spec = (mask, engines, fastpf, nl, sm, st)
        self._spec = spec
        return spec

    # ------------------------------------------------------------------
    # single straight-line access (the interpreter's non-loop path)
    # ------------------------------------------------------------------
    def execute_single(self, line: int, is_write: bool, node):
        """One single-line demand access, or ``None`` to defer.

        Fast-engine analogue of ``port.access_lines([line], ...)`` for
        the overwhelmingly common straight-line case: an L1 hit whose
        stride observation issues no prefetch work (no candidates, or
        only candidates already resident in L1/L2 — which the reference
        ``_hw_prefetch`` skips without touching any counter).  Anything
        else — L1 miss, unspecialized engines, a candidate that would
        actually fill — returns ``None`` *before mutating any state* so
        the caller takes the reference path.  Counters, trace emission
        (one batch event per access, same as ``access_lines``), and
        prefetcher state transitions are identical by construction.
        """
        port = self.port
        l1 = port.l1
        set1 = l1._sets[line & l1._set_mask]
        if line not in set1:
            spec = self._engine_spec()
            if not spec[2]:
                return None
            return self._single_miss(line, is_write, node, spec)
        spec = self._engine_spec()
        if not spec[2]:
            return None
        st = spec[5]
        ss = None
        cands = ()
        if st is not None:
            ss = st._table.get(0)
            if ss is not None:
                d = line - ss.last_line
                if d and -st._max_stride <= d <= st._max_stride:
                    new_conf = ss.confidence + 1 if d == ss.stride else 1
                    if new_conf >= st._threshold:
                        cands = [line + d * (k + 1)
                                 for k in range(st.degree)]
                        if cands[0] < 0 or cands[-1] < 0:
                            cands = [c for c in cands if c >= 0]
                        l2 = port.l2
                        s1, m1 = l1._sets, l1._set_mask
                        s2, m2 = l2._sets, l2._set_mask
                        for cand in cands:
                            if cand not in s2[cand & m2] \
                                    and cand not in s1[cand & m1]:
                                return None  # would fill: reference path
        # ---- commit point: state mutations below are exact ----------
        tlbm = tlbw = 0
        page = line >> port._page_shift
        if page != port._last_page:
            port._last_page = page
            walk = port.tlb.translate_page(page)
            if walk:
                tlbm = 1
                tlbw = walk
        set1[line] = set1.pop(line) or is_write
        l1.stats.hits += 1
        if st is not None:
            st._tick += 1
            if ss is None:
                if len(st._table) >= st._sites_max:
                    table = st._table
                    del table[min(table, key=lambda s: table[s].lru_tick)]
                st._table[0] = _SiteState(last_line=line,
                                          lru_tick=st._tick)
            else:
                ss.lru_tick = st._tick
                d = line - ss.last_line
                ss.last_line = line
                if d == 0 or d > st._max_stride or d < -st._max_stride:
                    ss.confidence = 0
                    ss.stride = 0
                else:
                    if d == ss.stride:
                        ss.confidence += 1
                    else:
                        ss.stride = d
                        ss.confidence = 1
                    if ss.confidence >= st._threshold:
                        # all candidates resident (checked above): the
                        # reference engine only counts them as issued
                        st.stats.issued += len(cands)
        stats = BatchStats(accesses=1, l1_hits=1,
                           tlb_misses=tlbm, tlb_walk_cycles=tlbw)
        port.totals.merge(stats)
        if port.bus.enabled:
            port._emit_batch(stats, port.node if node is None else node)
        return stats

    def _single_miss(self, line: int, is_write: bool, node, spec):
        """One single-line demand access that misses L1.

        The full demand chain — fill path, eviction absorbs, and the
        stock prefetcher observes — inlined for exactly one line with
        direct stats updates, sparing the deferred route through
        :meth:`execute_plan` (whose hoist/flush preamble is all fixed
        cost at one line).  Counter-for-counter identical to replaying
        a one-line plan; only reachable under the specialized engine
        trio (``spec[2]``).
        """
        port = self.port
        l1, l2, l3 = port.l1, port.l2, port.l3
        s1, m1, a1 = l1._sets, l1._set_mask, l1._assoc
        s2, m2, a2 = l2._sets, l2._set_mask, l2._assoc
        s3, m3, a3 = l3._sets, l3._set_mask, l3._assoc
        prefetched = port._prefetched
        _mask, engines, _fastpf, nl, sm, st = spec
        rhome = port.node if node is None else node
        remote = rhome != port.node

        tlbm = tlbw = 0
        page = line >> port._page_shift
        if page != port._last_page:
            port._last_page = page
            walk = port.tlb.translate_page(page)
            if walk:
                tlbm = 1
                tlbw = walk

        l2h = l3h = drd = wbk = rem = 0
        e1 = e2 = e3 = hwi = pfr = pfu = 0
        c1d = c2f = c2d = c3h = c3m = c3f = c3d = 0
        occ1 = occ2 = occ3 = 0

        def absorb_l3(vline):
            nonlocal c3f, c3d, e3, occ3, wbk
            aset = s3[vline & m3]
            if vline in aset:
                aset[vline] = True
                return
            c3f += 1
            if len(aset) >= a3:
                vd = aset.pop(next(iter(aset)))
                e3 += 1
                if vd:
                    c3d += 1
                    wbk += 1
            else:
                occ3 += 1
            aset[vline] = True

        def absorb_l2(vline):
            nonlocal c2f, c2d, e2, occ2
            aset = s2[vline & m2]
            if vline in aset:
                aset[vline] = True
                return
            c2f += 1
            if len(aset) >= a2:
                victim = next(iter(aset))
                vd = aset.pop(victim)
                e2 += 1
                if vd:
                    c2d += 1
                    absorb_l3(victim)
            else:
                occ2 += 1
            aset[vline] = True

        def hw_fill(pline):
            nonlocal hwi, pfr, wbk
            nonlocal c2f, c2d, c3h, c3m, c3f, c3d
            nonlocal e2, e3, occ2, occ3
            hwi += 1
            pset3 = s3[pline & m3]
            pv = pset3.pop(pline, _MISS)
            if pv is not _MISS:
                pset3[pline] = pv
                c3h += 1
            else:
                c3m += 1
                pfr += 1
                c3f += 1
                if len(pset3) >= a3:
                    vd = pset3.pop(next(iter(pset3)))
                    e3 += 1
                    if vd:
                        c3d += 1
                        wbk += 1
                else:
                    occ3 += 1
                pset3[pline] = False
            pset2 = s2[pline & m2]
            c2f += 1
            if len(pset2) >= a2:
                victim = next(iter(pset2))
                pv = pset2.pop(victim)
                e2 += 1
                if pv:
                    c2d += 1
                    absorb_l3(victim)
            else:
                occ2 += 1
            pset2[pline] = False
            prefetched.add(pline)

        # demand lookup past L1 (the caller established the L1 miss)
        set2 = s2[line & m2]
        v = set2.pop(line, _MISS)
        if v is not _MISS:
            set2[line] = v
            l2h = 1
            if line in prefetched:
                prefetched.discard(line)
                pfu = 1
                for engine in engines:
                    engine.stats.useful += 1
        else:
            set3 = s3[line & m3]
            v = set3.pop(line, _MISS)
            if v is not _MISS:
                set3[line] = v
                l3h = 1
                if line in prefetched:
                    prefetched.discard(line)
                    pfu = 1
            else:
                drd = 1
                if remote:
                    rem = 1
                # fill L3 (absent)
                if len(set3) >= a3:
                    vd = set3.pop(next(iter(set3)))
                    e3 += 1
                    if vd:
                        c3d += 1
                        wbk += 1
                else:
                    occ3 += 1
                set3[line] = False
            # fill L2 (absent: the L2 miss branch)
            if len(set2) >= a2:
                victim = next(iter(set2))
                vd = set2.pop(victim)
                e2 += 1
                if vd:
                    c2d += 1
                    absorb_l3(victim)
            else:
                occ2 += 1
            set2[line] = False
        # fill L1 (absent: the caller's miss check)
        set1 = s1[line & m1]
        if len(set1) >= a1:
            victim = next(iter(set1))
            vd = set1.pop(victim)
            e1 += 1
            if vd:
                c1d += 1
                absorb_l2(victim)
        else:
            occ1 += 1
        set1[line] = is_write

        # next-line engine (observes misses only)
        if nl is not None:
            nxt = line + 1
            if nxt % nl._lines_per_page:
                nl.stats.issued += 1
                if nxt not in s2[nxt & m2] and nxt not in s1[nxt & m1]:
                    hw_fill(nxt)

        # streamer (observes misses only)
        if sm is not None:
            sm._tick += 1
            sm_lpp = sm._lines_per_page
            sm_table = sm._table
            spage = line // sm_lpp
            tr = sm_table.get(spage)
            if tr is None:
                if len(sm_table) >= sm._trackers_max:
                    del sm_table[min(
                        sm_table, key=lambda p: sm_table[p].lru_tick)]
                sm_table[spage] = _PageTracker(
                    last_line=line, frontier=line, lru_tick=sm._tick)
            else:
                tr.lru_tick = sm._tick
                delta = line - tr.last_line
                tr.last_line = line
                if delta:
                    dirn = 1 if delta > 0 else -1
                    if dirn == tr.direction:
                        conf = tr.confidence + 1
                    else:
                        tr.direction = dirn
                        conf = 1
                        tr.frontier = line
                    tr.confidence = conf
                    if conf >= sm._threshold:
                        pfirst = spage * sm_lpp
                        sm_rng = None
                        if dirn > 0:
                            start = tr.frontier + 1
                            lo = line + 1
                            if start < lo:
                                start = lo
                            end = line + sm.distance
                            plast = pfirst + sm_lpp - 1
                            if end > plast:
                                end = plast
                            n = end - start + 1
                            if n > 0:
                                if n > sm.degree:
                                    n = sm.degree
                                end = start + n - 1
                                tr.frontier = end
                                sm.stats.issued += n
                                sm_rng = range(start, end + 1)
                        else:
                            start = tr.frontier - 1
                            hi = line - 1
                            if start > hi:
                                start = hi
                            end = line - sm.distance
                            if end < pfirst:
                                end = pfirst
                            n = start - end + 1
                            if n > 0:
                                if n > sm.degree:
                                    n = sm.degree
                                end = start - n + 1
                                tr.frontier = end
                                sm.stats.issued += n
                                sm_rng = range(start, end - 1, -1)
                        if sm_rng is not None:
                            for p in sm_rng:
                                if p in s2[p & m2] or p in s1[p & m1]:
                                    continue
                                hw_fill(p)

        # IP-stride engine (observes hits and misses)
        if st is not None:
            st._tick += 1
            table = st._table
            ss = table.get(0)
            if ss is None:
                if len(table) >= st._sites_max:
                    del table[min(
                        table, key=lambda s: table[s].lru_tick)]
                table[0] = _SiteState(last_line=line, lru_tick=st._tick)
            else:
                ss.lru_tick = st._tick
                d = line - ss.last_line
                ss.last_line = line
                maxs = st._max_stride
                if d == 0 or d > maxs or d < -maxs:
                    ss.confidence = 0
                    ss.stride = 0
                else:
                    if d == ss.stride:
                        ss.confidence += 1
                    else:
                        ss.stride = d
                        ss.confidence = 1
                    if ss.confidence >= st._threshold:
                        deg = st.degree
                        if line + d * deg < 0:
                            cands = [c for k in range(deg)
                                     if (c := line + d * (k + 1)) >= 0]
                        else:
                            cands = range(line + d,
                                          line + d * deg + d, d)
                        st.stats.issued += len(cands)
                        for p in cands:
                            if p in s2[p & m2] or p in s1[p & m1]:
                                continue
                            hw_fill(p)

        # ---- flush: stats deltas for exactly one demand line --------
        cs = l1.stats
        cs.misses += 1
        cs.fills += 1
        cs.evictions += e1
        cs.dirty_evictions += c1d
        cs = l2.stats
        cs.hits += l2h
        cs.misses += 1 - l2h
        cs.fills += (1 - l2h) + c2f
        cs.evictions += e2
        cs.dirty_evictions += c2d
        dm3 = 1 - l2h - l3h
        cs = l3.stats
        cs.hits += l3h + c3h
        cs.misses += dm3 + c3m
        cs.fills += dm3 + c3f
        cs.evictions += e3
        cs.dirty_evictions += c3d
        l1._resident += occ1
        l2._resident += occ2
        l3._resident += occ3
        if drd or pfr or wbk:
            counters = port.hierarchy.dram[rhome].counters
            counters.cas_reads += drd + pfr
            counters.cas_writes += wbk
            homes = {rhome: [drd, pfr, wbk, rem]}
        else:
            homes = {}
        stats = BatchStats(
            accesses=1, l2_hits=l2h, l3_hits=l3h, dram_reads=drd,
            writebacks=wbk, l1_evictions=e1, l2_evictions=e2,
            l3_evictions=e3, hw_prefetch_issued=hwi,
            hw_prefetch_dram_reads=pfr, prefetch_useful=pfu,
            remote_dram_lines=rem, tlb_misses=tlbm, tlb_walk_cycles=tlbw,
        )
        port.totals.merge(stats)
        if port.bus.enabled:
            port.emit_plan_batch(stats, homes)
        return stats

    # ------------------------------------------------------------------
    # fallback: segment-granular port calls (exact by construction)
    # ------------------------------------------------------------------
    def _execute_segments(self, plan: "AccessPlan") -> BatchStats:
        port = self.port
        batch = BatchStats()
        for seg in plan.segments:
            kind = seg.kind
            if kind == "prefetch":
                stats = port.software_prefetch(seg.lines, node=seg.home)
            elif kind == "flush":
                stats = port.flush_lines(seg.lines, node=seg.home)
            else:
                stats = port.access_lines(
                    seg.lines,
                    is_write=(kind in ("store", "ntstore")),
                    nt=(kind == "ntstore"),
                    node=seg.home,
                    stream_id=seg.stream_id,
                )
            batch.merge(stats)
        return batch

    # ------------------------------------------------------------------
    # inlined dict-LRU datapath
    # ------------------------------------------------------------------
    def execute_plan(self, plan: "AccessPlan") -> BatchStats:
        with SPANS("engine.execute"):
            if self._use_c:
                return self._execute_c(plan)
            if not self._inline:
                return self._execute_segments(plan)
            return self._execute_inline(plan)

    # ------------------------------------------------------------------
    # compiled kernel path (array-backend hierarchies)
    # ------------------------------------------------------------------
    def _build_ctx(self) -> "ckernel.Ctx":
        """Materialise the C context over the port's array state.

        Every pointer references numpy storage that is mutated strictly
        in place by the Python fallbacks (cache ``clear``, TLB ``flush``,
        prefetcher ``reset``), so the context stays valid across busts.
        The one reallocating structure — the prefetched-line hash set —
        is re-pointed before every kernel call (``_execute_c``).
        """
        port = self.port
        hier = port.hierarchy
        ctx = ckernel.Ctx()
        for i, cache in enumerate((port.l1, port.l2, port.l3)):
            ctx.tags[i] = cache._tags.ctypes.data
            ctx.dirty[i] = cache._adirty.ctypes.data
            ctx.stamp[i] = cache._stamp.ctypes.data
            ctx.set_mask[i] = cache._set_mask
            ctx.assoc[i] = cache._assoc
        tlb = port.tlb
        ctx.tlb1_pages = tlb.l1_pages.ctypes.data
        ctx.tlb1_stamp = tlb.l1_stamp.ctypes.data
        ctx.tlb2_pages = tlb.l2_pages.ctypes.data
        ctx.tlb2_stamp = tlb.l2_stamp.ctypes.data
        ctx.tlb_regs = tlb.regs.ctypes.data
        ctx.tlb1_entries = tlb.config.l1_entries
        ctx.tlb2_entries = tlb.config.l2_entries
        ctx.walk_latency = tlb.config.walk_latency_cycles
        pf = port._prefetched
        ctx.pf_slots = pf.slots.ctypes.data
        ctx.pf_regs = pf.regs.ctypes.data
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
        self._regs = np.zeros(4, dtype=np.int64)
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
        capacity, and register sync (cache ticks + TLB page cursor)."""
        ctx = self._ctx
        if ctx is None:
            ctx = self._build_ctx()
        self._sync_flags()
        port = self.port
        pf = port._prefetched
        pf.ensure_room(room)
        slots = pf.slots
        if slots is not self._pf_ref:
            # reallocated — by ensure_room here, or by a Python-side
            # insert (multi-line singles route through access_lines)
            self._pf_ref = slots
            ctx.pf_slots = slots.ctypes.data
            ctx.pf_mask = pf._mask
        regs = self._regs
        regs[0] = port.l1._tick
        regs[1] = port.l2._tick
        regs[2] = port.l3._tick
        regs[3] = port._last_page
        return ctx

    def _post_call(self) -> None:
        port = self.port
        regs = self._regs
        port.l1._tick = int(regs[0])
        port.l2._tick = int(regs[1])
        port.l3._tick = int(regs[2])
        port._last_page = int(regs[3])

    def _execute_c(self, plan: "AccessPlan") -> BatchStats:
        packed = plan.packed
        if packed is None:
            packed = plan.ensure_packed()
        # worst case inserts per demand line: degree prefetch candidates
        # per engine (2+2+1) plus the line itself, rounded up
        self._pre_call(6 * plan.total_lines + 8)
        meta_p, lines_p, sids_p = packed.ptrs
        self._fn_plan(self._ctx_ref, packed.nruns, meta_p, lines_p,
                      sids_p, self._out_ptr)
        self._post_call()
        return self._apply_out(self._out.tolist())

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

        Mirrors the bulk-flush epilogue of ``_execute_inline`` line for
        line: derived demand-path CacheStats, occupancy deltas, TLB
        stats, per-engine issue/useful attribution, IMC CAS counters,
        and the plan-granular trace emission.
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

    def _execute_inline(self, plan: "AccessPlan") -> BatchStats:
        port = self.port
        hier = port.hierarchy
        l1, l2, l3 = port.l1, port.l2, port.l3
        s1, s2, s3 = l1._sets, l2._sets, l3._sets
        m1, m2, m3 = l1._set_mask, l2._set_mask, l3._set_mask
        a1, a2, a3 = l1._assoc, l2._assoc, l3._assoc
        prefetched = port._prefetched
        translate = port.tlb.translate_page
        last_page = port._last_page
        # engine specialization: exactly the stock trio (any subset, in
        # canonical order, stock training flags) gets its observe
        # bodies inlined below; anything else takes the generic loop
        _mask, engines, fastpf, nl, sm, st = self._engine_spec()
        if not fastpf:
            hit_engines = [e for e in engines if e.train_on_hits]

        if st is not None:
            st_table = st._table
            st_tick = st._tick
            st_max = st._sites_max
            st_deg = st.degree
            st_thr = st._threshold
            st_maxs = st._max_stride
            st_issued = 0
        if sm is not None:
            sm_table = sm._table
            sm_tick = sm._tick
            sm_max = sm._trackers_max
            sm_deg = sm.degree
            sm_dist = sm.distance
            sm_thr = sm._threshold
            sm_lpp = sm._lines_per_page
            sm_issued = 0
        if nl is not None:
            nl_lpp = nl._lines_per_page
            nl_issued = 0

        # batch counters (BatchStats fields)
        acc = l1h = l2h = l3h = drd = wbk = ntl = 0
        e1 = e2 = e3 = swp = hwi = pfr = pfu = rem = fls = 0
        tlbm = tlbw = 0
        # demand accesses: the per-level CacheStats hit/miss/fill deltas
        # of the demand path are all derivable from it and l1h/l2h/l3h
        # (each demand miss fills every level below its hit), so the
        # per-line loops below only maintain the *non-demand*
        # contributions (hw/sw prefetch fills, victim absorbs)
        dacc = 0
        c1f = c1d = c1i = 0
        c2f = c2d = c2i = 0
        c3h = c3m = c3f = c3d = c3i = 0
        # resident-line deltas per level
        occ1 = occ2 = occ3 = 0
        # per-home DRAM traffic: [demand_reads, pf_reads, writes, remote]
        homes = {}
        # per-segment DRAM accumulators (single-home plans skip the
        # per-segment roll-up and attribute the plan totals in one step)
        cur_dr = cur_pf = cur_wr = cur_rm = cur_nt = 0
        multi = not plan.single_home
        remote = plan.remote0
        home = plan.home0

        def absorb_l3(line):
            """Inline of ``_absorb_dirty(l3, line)``."""
            nonlocal c3f, c3d, e3, occ3, wbk, cur_wr
            aset = s3[line & m3]
            if line in aset:
                aset[line] = True
                return
            c3f += 1
            if len(aset) >= a3:
                vd = aset.pop(next(iter(aset)))
                e3 += 1
                if vd:
                    c3d += 1
                    wbk += 1
                    cur_wr += 1
            else:
                occ3 += 1
            aset[line] = True

        def absorb_l2(line):
            """Inline of ``_absorb_dirty(l2, line)``."""
            nonlocal c2f, c2d, e2, occ2
            aset = s2[line & m2]
            if line in aset:
                aset[line] = True
                return
            c2f += 1
            if len(aset) >= a2:
                victim = next(iter(aset))
                vd = aset.pop(victim)
                e2 += 1
                if vd:
                    c2d += 1
                    absorb_l3(victim)
            else:
                occ2 += 1
            aset[line] = True

        def hw_fill(pline):
            """One non-resident hw-prefetch candidate's fill chain
            (the body of ``CorePort._hw_prefetch`` past its residency
            skip; callers check residency inline first)."""
            nonlocal hwi, pfr, wbk, cur_pf, cur_wr
            nonlocal c2f, c2d, c3h, c3m, c3f, c3d
            nonlocal e2, e3, occ2, occ3
            hwi += 1
            pset3 = s3[pline & m3]
            if pline in pset3:
                pset3[pline] = pset3.pop(pline)
                c3h += 1
            else:
                c3m += 1
                pfr += 1
                cur_pf += 1
                # fill L3 (absent)
                c3f += 1
                if len(pset3) >= a3:
                    vd = pset3.pop(next(iter(pset3)))
                    e3 += 1
                    if vd:
                        c3d += 1
                        wbk += 1
                        cur_wr += 1
                else:
                    occ3 += 1
                pset3[pline] = False
            # fill L2 (absent: resident lines were skipped by caller)
            pset2 = s2[pline & m2]
            c2f += 1
            if len(pset2) >= a2:
                victim = next(iter(pset2))
                vd = pset2.pop(victim)
                e2 += 1
                if vd:
                    c2d += 1
                    absorb_l3(victim)
            else:
                occ2 += 1
            pset2[pline] = False
            prefetched.add(pline)

        def hw_prefetch(cands):
            """Inline of ``CorePort._hw_prefetch`` for ``cands``."""
            for pline in cands:
                if pline in s2[pline & m2] or pline in s1[pline & m1]:
                    continue
                hw_fill(pline)

        for seg in plan.runs:
            op = seg.op
            lines = seg.lines
            if not lines:
                continue
            if multi:
                home = seg.rhome
                remote = seg.remote
                cur_dr = cur_pf = cur_wr = cur_rm = cur_nt = 0

            if op <= 1:  # demand: load / gather (0) or store (1)
                # precomputed page transitions: only the first line can
                # coincide with the runtime TLB cursor
                pg = seg.first_page
                if pg != last_page:
                    walk = translate(pg)
                    if walk:
                        tlbm += 1
                        tlbw += walk
                for pg in seg.walk_pages:
                    walk = translate(pg)
                    if walk:
                        tlbm += 1
                        tlbw += walk
                last_page = seg.last_page
                n = len(lines)
                acc += n
                dacc += n
                is_write = op == 1
                sids = seg.sids
                pairs = zip(lines, sids) if sids is not None \
                    else zip(lines, repeat(seg.stream_id))

                if fastpf:
                    # a uniform run (one stream id) hoists that stride
                    # stream's state into locals for the whole run —
                    # safe because no other stream observes during it,
                    # so the table stays fresh and the hoisted entry
                    # cannot be an eviction victim (inserts only happen
                    # when it is absent).  A mixed (fused multi-site)
                    # run switches streams nearly every line, so it
                    # updates table entries directly instead of paying
                    # hoist/writeback churn per line.
                    uniform = sids is None
                    ss = None
                    s_last = s_str = s_conf = 0
                    if uniform and st is not None:
                        ss = st_table.get(seg.stream_id)
                        if ss is not None:
                            s_last = ss.last_line
                            s_str = ss.stride
                            s_conf = ss.confidence
                    for line, sid in pairs:
                        set1 = s1[line & m1]
                        v = set1.pop(line, _MISS)
                        if v is not _MISS:
                            set1[line] = v or is_write
                            l1h += 1
                        else:
                            set2 = s2[line & m2]
                            v = set2.pop(line, _MISS)
                            if v is not _MISS:
                                set2[line] = v
                                l2h += 1
                                if line in prefetched:
                                    prefetched.discard(line)
                                    pfu += 1
                                    for engine in engines:
                                        engine.stats.useful += 1
                            else:
                                set3 = s3[line & m3]
                                v = set3.pop(line, _MISS)
                                if v is not _MISS:
                                    set3[line] = v
                                    l3h += 1
                                    if line in prefetched:
                                        prefetched.discard(line)
                                        pfu += 1
                                else:
                                    drd += 1
                                    cur_dr += 1
                                    if remote:
                                        rem += 1
                                        cur_rm += 1
                                    # fill L3 (absent)
                                    if len(set3) >= a3:
                                        vd = set3.pop(next(iter(set3)))
                                        e3 += 1
                                        if vd:
                                            c3d += 1
                                            wbk += 1
                                            cur_wr += 1
                                    else:
                                        occ3 += 1
                                    set3[line] = False
                                # fill L2 (absent: the L2 miss branch)
                                if len(set2) >= a2:
                                    victim = next(iter(set2))
                                    vd = set2.pop(victim)
                                    e2 += 1
                                    if vd:
                                        c2d += 1
                                        absorb_l3(victim)
                                else:
                                    occ2 += 1
                                set2[line] = False
                            # fill L1 (absent: the L1 miss branch)
                            if len(set1) >= a1:
                                victim = next(iter(set1))
                                vd = set1.pop(victim)
                                e1 += 1
                                if vd:
                                    c1d += 1
                                    absorb_l2(victim)
                            else:
                                occ1 += 1
                            set1[line] = is_write

                            # next-line engine (observes misses only)
                            if nl is not None:
                                nxt = line + 1
                                if nxt % nl_lpp:
                                    nl_issued += 1
                                    if nxt not in s2[nxt & m2] \
                                            and nxt not in s1[nxt & m1]:
                                        # hw_fill, inlined (fires on
                                        # nearly every demand miss)
                                        hwi += 1
                                        pset3 = s3[nxt & m3]
                                        pv = pset3.pop(nxt, _MISS)
                                        if pv is not _MISS:
                                            pset3[nxt] = pv
                                            c3h += 1
                                        else:
                                            c3m += 1
                                            pfr += 1
                                            cur_pf += 1
                                            c3f += 1
                                            if len(pset3) >= a3:
                                                vd = pset3.pop(
                                                    next(iter(pset3)))
                                                e3 += 1
                                                if vd:
                                                    c3d += 1
                                                    wbk += 1
                                                    cur_wr += 1
                                            else:
                                                occ3 += 1
                                            pset3[nxt] = False
                                        pset2 = s2[nxt & m2]
                                        c2f += 1
                                        if len(pset2) >= a2:
                                            victim = next(iter(pset2))
                                            pv = pset2.pop(victim)
                                            e2 += 1
                                            if pv:
                                                c2d += 1
                                                absorb_l3(victim)
                                        else:
                                            occ2 += 1
                                        pset2[nxt] = False
                                        prefetched.add(nxt)

                            # streamer (observes misses only)
                            if sm is not None:
                                sm_tick += 1
                                spage = line // sm_lpp
                                tr = sm_table.get(spage)
                                if tr is None:
                                    if len(sm_table) >= sm_max:
                                        del sm_table[min(
                                            sm_table,
                                            key=lambda p:
                                            sm_table[p].lru_tick)]
                                    sm_table[spage] = _PageTracker(
                                        last_line=line, frontier=line,
                                        lru_tick=sm_tick)
                                else:
                                    tr.lru_tick = sm_tick
                                    delta = line - tr.last_line
                                    tr.last_line = line
                                    if delta:
                                        dirn = 1 if delta > 0 else -1
                                        if dirn == tr.direction:
                                            conf = tr.confidence + 1
                                        else:
                                            tr.direction = dirn
                                            conf = 1
                                            tr.frontier = line
                                        tr.confidence = conf
                                        if conf >= sm_thr:
                                            pfirst = spage * sm_lpp
                                            sm_rng = None
                                            if dirn > 0:
                                                start = tr.frontier + 1
                                                lo = line + 1
                                                if start < lo:
                                                    start = lo
                                                end = line + sm_dist
                                                plast = pfirst + sm_lpp - 1
                                                if end > plast:
                                                    end = plast
                                                n = end - start + 1
                                                if n > 0:
                                                    if n > sm_deg:
                                                        n = sm_deg
                                                    end = start + n - 1
                                                    tr.frontier = end
                                                    sm_issued += n
                                                    sm_rng = range(
                                                        start, end + 1)
                                            else:
                                                start = tr.frontier - 1
                                                hi = line - 1
                                                if start > hi:
                                                    start = hi
                                                end = line - sm_dist
                                                if end < pfirst:
                                                    end = pfirst
                                                n = start - end + 1
                                                if n > 0:
                                                    if n > sm_deg:
                                                        n = sm_deg
                                                    end = start - n + 1
                                                    tr.frontier = end
                                                    sm_issued += n
                                                    sm_rng = range(
                                                        start,
                                                        end - 1, -1)
                                            if sm_rng is not None:
                                                for p in sm_rng:
                                                    if p in s2[p & m2] \
                                                            or p in s1[
                                                                p & m1]:
                                                        continue
                                                    # hw_fill, inlined
                                                    hwi += 1
                                                    pset3 = s3[p & m3]
                                                    pv = pset3.pop(
                                                        p, _MISS)
                                                    if pv is not _MISS:
                                                        pset3[p] = pv
                                                        c3h += 1
                                                    else:
                                                        c3m += 1
                                                        pfr += 1
                                                        cur_pf += 1
                                                        c3f += 1
                                                        if len(pset3) \
                                                                >= a3:
                                                            vd = pset3.pop(
                                                                next(iter(
                                                                    pset3)))
                                                            e3 += 1
                                                            if vd:
                                                                c3d += 1
                                                                wbk += 1
                                                                cur_wr += 1
                                                        else:
                                                            occ3 += 1
                                                        pset3[p] = False
                                                    pset2 = s2[p & m2]
                                                    c2f += 1
                                                    if len(pset2) >= a2:
                                                        victim = next(
                                                            iter(pset2))
                                                        pv = pset2.pop(
                                                            victim)
                                                        e2 += 1
                                                        if pv:
                                                            c2d += 1
                                                            absorb_l3(
                                                                victim)
                                                    else:
                                                        occ2 += 1
                                                    pset2[p] = False
                                                    prefetched.add(p)

                        # IP-stride engine (observes hits and misses);
                        # this is the tail of the line loop, so the
                        # no-candidate exits below `continue` directly
                        if st is None:
                            continue
                        st_tick += 1
                        if uniform:
                            if ss is None:
                                if len(st_table) >= st_max:
                                    del st_table[min(
                                        st_table,
                                        key=lambda s:
                                        st_table[s].lru_tick)]
                                ss = _SiteState(last_line=line,
                                                lru_tick=st_tick)
                                st_table[sid] = ss
                                s_last = line
                                s_str = 0
                                s_conf = 0
                                continue
                            d = line - s_last
                            s_last = line
                            if d == 0 or d > st_maxs or d < -st_maxs:
                                s_conf = 0
                                s_str = 0
                                continue
                            if d == s_str:
                                s_conf += 1
                            else:
                                s_str = d
                                s_conf = 1
                            if s_conf < st_thr:
                                continue
                        else:
                            sst = st_table.get(sid)
                            if sst is None:
                                if len(st_table) >= st_max:
                                    del st_table[min(
                                        st_table,
                                        key=lambda s:
                                        st_table[s].lru_tick)]
                                st_table[sid] = _SiteState(
                                    last_line=line, lru_tick=st_tick)
                                continue
                            sst.lru_tick = st_tick
                            d = line - sst.last_line
                            sst.last_line = line
                            if d == 0 or d > st_maxs or d < -st_maxs:
                                sst.confidence = 0
                                sst.stride = 0
                                continue
                            if d == sst.stride:
                                conf = sst.confidence + 1
                            else:
                                sst.stride = d
                                conf = 1
                            sst.confidence = conf
                            if conf < st_thr:
                                continue
                        if line + d * st_deg < 0:
                            # some candidate underflows line 0: take the
                            # filtered slow path (cold in practice)
                            cands = [c for k in range(st_deg)
                                     if (c := line + d * (k + 1)) >= 0]
                            st_issued += len(cands)
                            for p in cands:
                                if p in s2[p & m2] or p in s1[p & m1]:
                                    continue
                                hw_fill(p)
                            continue
                        st_issued += st_deg
                        p = line
                        for _k in range(st_deg):
                            p += d
                            if p in s2[p & m2] or p in s1[p & m1]:
                                continue
                            # hw_fill, inlined at the hottest fill site
                            hwi += 1
                            pset3 = s3[p & m3]
                            pv = pset3.pop(p, _MISS)
                            if pv is not _MISS:
                                pset3[p] = pv
                                c3h += 1
                            else:
                                c3m += 1
                                pfr += 1
                                cur_pf += 1
                                c3f += 1
                                if len(pset3) >= a3:
                                    vd = pset3.pop(next(iter(pset3)))
                                    e3 += 1
                                    if vd:
                                        c3d += 1
                                        wbk += 1
                                        cur_wr += 1
                                else:
                                    occ3 += 1
                                pset3[p] = False
                            pset2 = s2[p & m2]
                            c2f += 1
                            if len(pset2) >= a2:
                                victim = next(iter(pset2))
                                pv = pset2.pop(victim)
                                e2 += 1
                                if pv:
                                    c2d += 1
                                    absorb_l3(victim)
                            else:
                                occ2 += 1
                            pset2[p] = False
                            prefetched.add(p)
                    if st is not None and ss is not None:
                        ss.last_line = s_last
                        ss.stride = s_str
                        ss.confidence = s_conf
                        ss.lru_tick = st_tick

                else:
                    # generic engine set: per-line observe calls
                    for line, sid in pairs:
                        set1 = s1[line & m1]
                        if line in set1:
                            set1[line] = set1.pop(line) or is_write
                            l1h += 1
                            for engine in hit_engines:
                                cands = engine.observe(line, False, sid)
                                if cands:
                                    hw_prefetch(cands)
                            continue
                        set2 = s2[line & m2]
                        if line in set2:
                            set2[line] = set2.pop(line)
                            l2h += 1
                            if line in prefetched:
                                prefetched.discard(line)
                                pfu += 1
                                for engine in engines:
                                    engine.stats.useful += 1
                        else:
                            set3 = s3[line & m3]
                            if line in set3:
                                set3[line] = set3.pop(line)
                                l3h += 1
                                if line in prefetched:
                                    prefetched.discard(line)
                                    pfu += 1
                            else:
                                drd += 1
                                cur_dr += 1
                                if remote:
                                    rem += 1
                                    cur_rm += 1
                                # fill L3 (absent)
                                if len(set3) >= a3:
                                    vd = set3.pop(next(iter(set3)))
                                    e3 += 1
                                    if vd:
                                        c3d += 1
                                        wbk += 1
                                        cur_wr += 1
                                else:
                                    occ3 += 1
                                set3[line] = False
                            # fill L2 (absent: the L2 miss branch)
                            if len(set2) >= a2:
                                victim = next(iter(set2))
                                vd = set2.pop(victim)
                                e2 += 1
                                if vd:
                                    c2d += 1
                                    absorb_l3(victim)
                            else:
                                occ2 += 1
                            set2[line] = False
                        # fill L1 (absent: the L1 miss branch)
                        if len(set1) >= a1:
                            victim = next(iter(set1))
                            vd = set1.pop(victim)
                            e1 += 1
                            if vd:
                                c1d += 1
                                absorb_l2(victim)
                        else:
                            occ1 += 1
                        set1[line] = is_write
                        if engines:
                            for engine in engines:
                                cands = engine.observe(line, True, sid)
                                if cands:
                                    hw_prefetch(cands)

            elif op == 3:  # software prefetch
                # inline of CorePort.software_prefetch (no TLB, no
                # access counting, trains nothing)
                swp += len(lines)
                for line in lines:
                    if line in s1[line & m1]:
                        continue
                    set2 = s2[line & m2]
                    if line not in set2:
                        set3 = s3[line & m3]
                        if line in set3:
                            set3[line] = set3.pop(line)
                            c3h += 1
                        else:
                            c3m += 1
                            pfr += 1
                            cur_pf += 1
                            c3f += 1
                            if len(set3) >= a3:
                                vd = set3.pop(next(iter(set3)))
                                e3 += 1
                                if vd:
                                    c3d += 1
                                    wbk += 1
                                    cur_wr += 1
                            else:
                                occ3 += 1
                            set3[line] = False
                        c2f += 1
                        if len(set2) >= a2:
                            victim = next(iter(set2))
                            vd = set2.pop(victim)
                            e2 += 1
                            if vd:
                                c2d += 1
                                absorb_l3(victim)
                        else:
                            occ2 += 1
                        set2[line] = False
                    # fill L1 clean (absent: resident lines continue'd)
                    set1 = s1[line & m1]
                    c1f += 1
                    if len(set1) >= a1:
                        victim = next(iter(set1))
                        vd = set1.pop(victim)
                        e1 += 1
                        if vd:
                            c1d += 1
                            absorb_l2(victim)
                    else:
                        occ1 += 1
                    set1[line] = False
                    prefetched.add(line)

            elif op == 4:  # flush
                fls += len(lines)
                for line in lines:
                    dirty = False
                    set1 = s1[line & m1]
                    if line in set1:
                        dirty = set1.pop(line)
                        c1i += 1
                        occ1 -= 1
                    set2 = s2[line & m2]
                    if line in set2:
                        dirty = set2.pop(line) or dirty
                        c2i += 1
                        occ2 -= 1
                    set3 = s3[line & m3]
                    if line in set3:
                        dirty = set3.pop(line) or dirty
                        c3i += 1
                        occ3 -= 1
                    if dirty:
                        wbk += 1
                        cur_wr += 1

            else:  # op == 2: non-temporal store
                pg = seg.first_page
                if pg != last_page:
                    walk = translate(pg)
                    if walk:
                        tlbm += 1
                        tlbw += walk
                for pg in seg.walk_pages:
                    walk = translate(pg)
                    if walk:
                        tlbm += 1
                        tlbw += walk
                last_page = seg.last_page
                n = len(lines)
                acc += n
                ntl += n
                cur_nt += n
                if remote:
                    rem += n
                    cur_rm += n
                for line in lines:
                    set1 = s1[line & m1]
                    if line in set1:
                        del set1[line]
                        c1i += 1
                        occ1 -= 1
                    set2 = s2[line & m2]
                    if line in set2:
                        del set2[line]
                        c2i += 1
                        occ2 -= 1
                    set3 = s3[line & m3]
                    if line in set3:
                        del set3[line]
                        c3i += 1
                        occ3 -= 1

            if multi and (cur_dr or cur_pf or cur_wr or cur_nt or cur_rm):
                rec = homes.get(home)
                if rec is None:
                    rec = homes[home] = [0, 0, 0, 0]
                rec[0] += cur_dr
                rec[1] += cur_pf
                rec[2] += cur_wr + cur_nt
                rec[3] += cur_rm

        # ---- bulk flush of all accumulated state ---------------------
        if not multi and (drd or pfr or wbk or ntl):
            homes[plan.home0] = [drd, pfr, wbk + ntl, rem]
        if st is not None:
            st._tick = st_tick
            if st_issued:
                st.stats.issued += st_issued
        if sm is not None:
            sm._tick = sm_tick
            if sm_issued:
                sm.stats.issued += sm_issued
        if nl is not None and nl_issued:
            nl.stats.issued += nl_issued
        port._last_page = last_page
        stats = BatchStats(
            accesses=acc, l1_hits=l1h, l2_hits=l2h, l3_hits=l3h,
            dram_reads=drd, writebacks=wbk, nt_lines=ntl,
            l1_evictions=e1, l2_evictions=e2, l3_evictions=e3,
            sw_prefetches=swp, hw_prefetch_issued=hwi,
            hw_prefetch_dram_reads=pfr, prefetch_useful=pfu,
            remote_dram_lines=rem, flushes=fls,
            tlb_misses=tlbm, tlb_walk_cycles=tlbw,
        )
        # demand-path CacheStats deltas are derived: every demand miss
        # at a level is a fill at that level, and evictions are counted
        # once (the BatchStats e* counters share the same increment
        # sites as the per-level eviction stats)
        dm1 = dacc - l1h
        dm2 = dm1 - l2h
        dm3 = dm2 - l3h
        cs = l1.stats
        cs.hits += l1h
        cs.misses += dm1
        cs.fills += dm1 + c1f
        cs.evictions += e1
        cs.dirty_evictions += c1d
        cs.invalidations += c1i
        cs = l2.stats
        cs.hits += l2h
        cs.misses += dm2
        cs.fills += dm2 + c2f
        cs.evictions += e2
        cs.dirty_evictions += c2d
        cs.invalidations += c2i
        cs = l3.stats
        cs.hits += l3h + c3h
        cs.misses += dm3 + c3m
        cs.fills += dm3 + c3f
        cs.evictions += e3
        cs.dirty_evictions += c3d
        cs.invalidations += c3i
        l1._resident += occ1
        l2._resident += occ2
        l3._resident += occ3
        drams = hier.dram
        for node, rec in homes.items():
            counters = drams[node].counters
            counters.cas_reads += rec[0] + rec[1]
            counters.cas_writes += rec[2]
        port.totals.merge(stats)
        if port.bus.enabled:
            port.emit_plan_batch(stats, homes)
        return stats
