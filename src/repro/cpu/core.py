"""Core interpreter: executes ISA programs over the memory hierarchy.

The interpreter is structural: it does not compute numeric values, it
reproduces every *observable* the measurement methodology depends on —
the demand line-access stream (fed to the functional caches), the PMU
event increments (FP ops at issue, including reissue overcounts), and
the cycle cost (via :mod:`repro.cpu.timing`).

Innermost loops take a vectorised fast path: every memory instruction's
address sequence is affine in the induction variable, so the whole trip
sequence is evaluated with numpy, collapsed to its cache-line touch
stream, and fed to the core's port in one batch.  Loop bodies are
analysed once (FP mix, load-dependence taint, carried accumulator
chains) and the analysis is cached per loop object.

Canonical touch-stream semantics (mirrored by ``repro.oracle``):

* an affine site coalesces under the *monotone frontier* rule — within
  one flat-loop execution it emits, in iteration order, only the lines
  beyond the furthest line it has already touched (direction-aware for
  negative strides), skipping gap lines a stride jumps over entirely;
* a gather site coalesces *consecutive duplicates* of its per-iteration
  ``[first, end]`` line pair (its stream is data-dependent, so there is
  no monotone frontier to track);
* multi-site bodies interleave emissions in true iteration order, sites
  in body order within an iteration;
* straight-line memory instructions (and bodies of non-flat loops) emit
  their full ``[first .. end]`` line range on every execution.

On the compiled datapath the fast engine does not walk loop nests in
Python at all: :meth:`Core._run_body` lowers each run of eligible
top-level nodes, gathers included (:mod:`repro.cpu.nest`), and the C
kernel generates the same streams per phase, returning one counter row
per phase that is costed here in one array pass (see
``docs/ENGINE.md``, "Nest executor").  Everything else takes the walk
below, which without the kernel makes exactly the reference engine's
port calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..engine import ckernel
from ..engine.datapath import BatchDatapath
from ..engine.plan import AccessPlan, PlanCache
from ..errors import ExecutionError
from ..isa.instructions import (
    Flush,
    GatherLoad,
    Load,
    Loop,
    PrefetchHint,
    Store,
    VecOp,
)
from ..isa.program import Program
from ..memory.allocator import Allocation
from ..memory.hierarchy import BatchStats, CorePort, HierarchyConfig
from ..obs.spans import SPANS
from ..pmu.core_pmu import CorePmu
from ..trace.bus import TraceBus
from ..trace.events import PHASE, TraceEvent
from .nest import (
    PHASE_VEC,
    IndexTables,
    Nest,
    NestBuilder,
    check_index_range,
)
from .port_model import PortModel
from .timing import (
    PHASE_COLUMNS,
    THROUGHPUT_BOUNDS,
    PhaseCost,
    PhaseTable,
    TimingParams,
    memory_bounds,
    phase_cycles,
    reissue_slots,
)

#: lowered programs kept per core before the table is cleared
NEST_CACHE_PROGRAMS = 256

#: BatchStats.as_dict() keys, which are the leading counter-block
#: columns in the same order (tests/engine/test_ckernel_layout.py)
BATCH_FIELDS = tuple(BatchStats().as_dict())

#: counter-block columns the phase costing reads, in BatchStats order
_COST_FIELDS = ("l2_hits", "l3_hits", "dram_reads", "writebacks",
                "nt_lines", "hw_prefetch_dram_reads", "remote_dram_lines",
                "tlb_walk_cycles")
_COST_COLS = [ckernel.OUT[name] for name in
              ("l2h", "l3h", "drd", "wbk", "ntl", "pfr", "rem", "tlbw")]

#: the nest state word counting the lines the kernel fast-forwarded
_NST_SKIPPED = ckernel.NST["skipped"]


@dataclass
class ExecutionResult:
    """Everything one program execution produced on one core."""

    cycles: float = 0.0
    instructions: int = 0
    batch: BatchStats = field(default_factory=BatchStats)
    phases: PhaseTable = field(default_factory=PhaseTable)
    true_flops: int = 0

    def merge(self, other: "ExecutionResult") -> None:
        self.cycles += other.cycles
        self.instructions += other.instructions
        self.batch.merge(other.batch)
        self.phases.extend(other.phases)
        self.true_flops += other.true_flops


@dataclass
class _MemSite:
    """One memory instruction inside a loop body."""

    instr: object
    kind: str          # 'load' | 'store' | 'ntstore' | 'prefetch' | 'flush'
    width_bits: int
    site_id: int


@dataclass
class _LoopInfo:
    """Cached per-body analysis of a flat (innermost) loop."""

    fp_ops: Dict[Tuple[str, int], int]            # (op, width) -> per-iter count
    fp_events: Dict[Tuple[int, str, bool], int]   # (width, prec, is_fma) -> instrs
    dep_fp_events: Dict[Tuple[int, str, bool], int]
    chain_latency: int
    mem_sites: List[_MemSite]
    load_widths: Dict[int, int]
    store_widths: Dict[int, int]
    body_instructions: int
    flops_per_trip: int = 0
    # phase skeleton: whole-phase costs precomputed at analysis time
    # (trip counts are static), so executions skip the scaling work
    fp_ops_total: Dict[Tuple[str, int], int] = field(default_factory=dict)
    load_widths_total: Dict[int, int] = field(default_factory=dict)
    store_widths_total: Dict[int, int] = field(default_factory=dict)
    chain_cycles_total: float = 0.0
    fp_events_total: List[Tuple[Tuple[int, str, bool], int]] = field(
        default_factory=list
    )
    #: (event key, per-iter instrs, flops re-counted per reissue slot)
    dep_fp_terms: List[Tuple[Tuple[int, str, bool], int, int]] = field(
        default_factory=list
    )
    #: symbolic-tier structural key — loop id plus per-site
    #: (kind, width, buffer, referenced ivs); ``None`` when the body is
    #: not symbolically plannable (a gather site, or a negative stride
    #: over the loop's own induction variable)
    skey: Optional[tuple] = None
    #: this core's site ids in body order (part of the binding key: two
    #: structurally identical loops still train distinct stride sites)
    sid_tuple: Tuple[int, ...] = ()
    #: per-core memo of the interned SymbolicPlan for ``skey``
    symbolic: Optional[object] = None


class Core:
    """One simulated core: interpreter + PMU + port binding."""

    def __init__(self, core_id: int, ports: PortModel,
                 hierarchy_config: HierarchyConfig, port: CorePort,
                 pmu: CorePmu, timing: TimingParams,
                 walk_reason: Optional[str] = None) -> None:
        self.core_id = core_id
        self.ports = ports
        self.config = hierarchy_config
        self.port = port
        self.pmu = pmu
        self.timing = timing
        #: whether accesses run in the C kernel: the hierarchy holds its
        #: array state.  Otherwise the core walks and makes the
        #: reference engine's per-line port calls, counting its
        #: top-level nodes under ``walk_reason`` (the machine's decision)
        self._compiled = port.hierarchy.array_mode
        self._walk_reason = walk_reason
        # trace bus shared with the port's hierarchy (and the machine)
        self.bus: TraceBus = port.bus
        self._line_shift = hierarchy_config.line_bytes.bit_length() - 1
        self._loop_info: Dict[int, Tuple[Loop, _LoopInfo]] = {}
        self._tables: Dict[str, object] = {}
        self._next_site_id = core_id << 20  # site ids unique per core
        #: compile-tier state (used only on the C datapath)
        self.plan_cache = PlanCache()
        self._datapath = BatchDatapath(port)
        #: id(program) -> (program, lowered parts) for the nest executor
        self._lowered: Dict[int, tuple] = {}

    @property
    def plan_stats(self):
        """Compile-tier telemetry (hits/misses/built lines)."""
        return self.plan_cache.stats

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def execute(self, program: Program, buffer_map: Dict[str, Allocation],
                dram_bytes_per_cycle: float) -> ExecutionResult:
        """Run ``program`` with buffers mapped per ``buffer_map``.

        ``dram_bytes_per_cycle`` is this core's share of DRAM bandwidth
        for the run (the machine computes it from active-core contention).
        """
        for name in program.buffers:
            if name not in buffer_map:
                raise ExecutionError(f"buffer {name!r} not mapped")
        result = ExecutionResult()
        self._tables = program.tables
        if self.bus.enabled:
            # this core's phases start at the machine's current TSC
            self.bus.cursor = self.bus.now
        self._run_body(program, buffer_map, dram_bytes_per_cycle, result)
        counts = program.static_counts()
        result.true_flops = counts.flops
        self.pmu.add("cycles", int(result.cycles))
        self.pmu.add("instructions", result.instructions)
        batch = result.batch
        self.pmu.add("l1_accesses", batch.accesses)
        self.pmu.add("l1_replacement", max(batch.accesses - batch.l1_hits, 0))
        self.pmu.add(
            "l2_lines_in",
            batch.l3_hits + batch.dram_reads + batch.hw_prefetch_issued,
        )
        self.pmu.add("llc_misses", batch.dram_reads)
        self.pmu.add("dtlb_walks", batch.tlb_misses)
        return result

    # ------------------------------------------------------------------
    # nest executor
    # ------------------------------------------------------------------
    def _run_body(self, program: Program, buffers, dram_bpc,
                  result: ExecutionResult) -> None:
        """Execute the program body: lowered nests through the C kernel,
        every other top-level node through the walk."""
        stats = self.plan_cache.stats
        if not self._compiled:
            stats.fallbacks[self._walk_reason] += len(program.body)
            self._exec_nodes(program.body, {}, buffers, dram_bpc, result)
            return
        for part in self._lower(program):
            if isinstance(part, Nest):
                stats.nest_runs += 1
                self._exec_nest(part, buffers, dram_bpc, result)
            else:
                node, reason = part
                stats.fallbacks[reason] += 1
                self._exec_nodes((node,), {}, buffers, dram_bpc, result)

    def _lower(self, program: Program) -> list:
        """The program body as ``Nest`` / ``(node, reason)`` parts,
        lowered once per program object (strongly referenced)."""
        cached = self._lowered.get(id(program))
        if cached is not None:
            return cached[1]
        with SPANS("engine.compile"):
            parts: list = []
            tables = IndexTables(program.tables)
            builder = NestBuilder(self, tables)
            for node in program.body:
                reason = builder.add_top(node)
                if reason is None:
                    continue
                if builder.nnodes:
                    parts.append(builder.build())
                builder = NestBuilder(self, tables)
                parts.append((node, reason))
            if builder.nnodes:
                parts.append(builder.build())
        if len(self._lowered) >= NEST_CACHE_PROGRAMS:
            self._lowered.clear()
        self._lowered[id(program)] = (program, parts)
        return parts

    def _exec_nest(self, nest: Nest, buffers, dram_bpc,
                   result: ExecutionResult) -> None:
        """Run one lowered nest to completion through the C kernel.

        Each kernel call returns at a phase boundary (row matrix full,
        or the prefetched set short of the next phase's worst case); its
        rows are costed and applied before the walk resumes.
        """
        dp = self._datapath
        with SPANS("engine.compile"):
            nest.bind(buffers, self.port.node)
        state = nest.state
        state.fill(0)
        while state[0] < nest.nnodes:
            with SPANS("engine.execute"):
                n = dp.execute_nest(nest, state, max(nest.room, int(state[1])))
            if n:
                self._cost_rows(nest, n, dram_bpc, result)
        self.plan_cache.stats.skipped_lines += int(state[_NST_SKIPPED])

    def _cost_rows(self, nest: Nest, n: int, dram_bpc,
                   result: ExecutionResult) -> None:
        """Cost, trace and apply one kernel call's ``n`` phase rows.

        Every phase is costed at once through the elementwise
        :func:`memory_bounds` / :func:`reissue_slots`; ``result.cycles``
        still accumulates in program order (``np.cumsum``), with
        straight-line ``VecOp`` issue cycles in their place.
        """
        dp = self._datapath
        rows = dp.nest_rows[:n]
        pcs = dp.nest_row_node[:n]
        with SPANS("cpu.timing"):
            cum = rows[:, _COST_COLS]
            delta = np.empty_like(cum)
            delta[0] = cum[0]
            np.subtract(cum[1:], cum[:-1], out=delta[1:])
            batch = BatchStats(**dict(zip(_COST_FIELDS, delta.T)))
            l2_bw, l3_bw, dram_bw, exposed = memory_bounds(
                self.config, batch, self.timing, dram_bpc)
            fp_issue, mem_issue, chain, vec_cost = nest.statics[pcs].T
            total = np.maximum(
                np.maximum(np.maximum(fp_issue, mem_issue),
                           np.maximum(chain, l2_bw)),
                np.maximum(l3_bw, dram_bw),
            ) + exposed
            if nest.has_vec:
                is_vec = nest.is_vec[pcs]
                total = np.where(is_vec, vec_cost, total)
                keep = ~is_vec
            else:
                keep = slice(None)
            steps = np.cumsum(np.concatenate(([result.cycles], total)))
            result.cycles = float(steps[-1])
            result.instructions += int(nest.instructions[pcs].sum())
            costs = np.stack((fp_issue, mem_issue, chain, l2_bw, l3_bw,
                              dram_bw, exposed))
            result.phases.add_block(costs[:, keep])
            slots = (reissue_slots(self.config, batch, self.timing)
                     if nest.has_dep else None)
            self._nest_pmu(nest, pcs, slots)
        with SPANS("engine.execute"):
            result.batch.merge(dp.apply_nest_totals())
        if self.bus.enabled:
            self._trace_rows(nest, rows, pcs, costs, total, slots,
                             dram_bpc)

    def _nest_pmu(self, nest: Nest, pcs, slots) -> None:
        """PMU FP events of a batch of phases: per-phase adds summed per
        node, nodes in program order (first-touch key order kept)."""
        counts = np.bincount(pcs, minlength=nest.nnodes)
        slot_sums = (np.bincount(pcs, weights=slots, minlength=nest.nnodes)
                     if slots is not None else None)
        add_fp = self.pmu.add_fp
        for pc in np.flatnonzero(counts).tolist():
            phase = nest.phase[pc]
            execs = int(counts[pc])
            for (width, prec, is_fma), instrs in phase.fp_events:
                add_fp(width, prec, instrs * execs, is_fma)
            if phase.dep_terms:
                total_slots = int(slot_sums[pc])
                if total_slots:
                    for (width, prec, is_fma), instrs, _f in phase.dep_terms:
                        add_fp(width, prec, instrs * total_slots, is_fma)

    def _trace_rows(self, nest: Nest, rows, pcs, costs, total, slots,
                    dram_bpc) -> None:
        """Publish one kernel call's PHASE events, in program order and
        with the walk's args, advancing the phase cursor.

        The call's batch events were published once, at the cursor
        where it started (like one executed plan); each PHASE event
        carries its own phase's counters from the row deltas.
        ``costs`` is the call's ``(7, n)`` cost block, rows in
        :data:`PHASE_COLUMNS` order; ``argmax`` over its six throughput
        bounds picks the first maximum, as :attr:`PhaseCost.dominant`
        does.
        """
        bus = self.bus
        cum = rows[:, :len(BATCH_FIELDS)]
        delta = np.empty_like(cum)
        delta[0] = cum[0]
        np.subtract(cum[1:], cum[:-1], out=delta[1:])
        dominant = np.argmax(costs[:-1], axis=0).tolist()
        nslots = (slots.tolist() if slots is not None
                  else [0] * len(pcs))
        mlp = self.timing.mlp
        core = self.core_id
        for counts, pc, dur, dom, slot, cost in zip(
                delta.tolist(), pcs.tolist(), total.tolist(), dominant,
                nslots, costs.T.tolist()):
            phase = nest.phase[pc]
            if phase.kind == PHASE_VEC:
                args = {
                    "trips": 1,
                    "dominant": "fp_issue",
                    "bounds": {"fp_issue": dur},
                    "batch": {},
                    "dram_bpc": dram_bpc,
                    "mlp": mlp,
                    "reissue_slots": 0,
                    "reissue_flops": 0,
                    "instructions": 1,
                    "flops": phase.flops,
                }
            else:
                if not phase.dep_terms:
                    slot = 0
                args = {
                    "trips": phase.trips,
                    "dominant": THROUGHPUT_BOUNDS[dom],
                    "bounds": dict(zip(PHASE_COLUMNS, cost)),
                    "batch": dict(zip(BATCH_FIELDS, counts)),
                    "dram_bpc": dram_bpc,
                    "mlp": mlp,
                    "reissue_slots": slot,
                    "reissue_flops": phase.dep_flops * slot,
                    "instructions": phase.instructions,
                    "flops": phase.flops,
                }
            bus.emit(TraceEvent(PHASE, phase.label, bus.cursor, core=core,
                                dur=dur, args=args))
            bus.cursor += dur

    # ------------------------------------------------------------------
    # tree walk
    # ------------------------------------------------------------------
    def _exec_nodes(self, nodes, ivs, buffers, dram_bpc, result) -> None:
        for node in nodes:
            if isinstance(node, Loop):
                if node.trips == 0:
                    continue
                if any(isinstance(child, Loop) for child in node.body):
                    for trip in range(node.trips):
                        ivs[node.loop_id] = trip
                        self._exec_nodes(node.body, ivs, buffers, dram_bpc, result)
                    del ivs[node.loop_id]
                else:
                    self._exec_flat_loop(node, ivs, buffers, dram_bpc, result)
            else:
                self._exec_single(node, ivs, buffers, dram_bpc, result)

    # ------------------------------------------------------------------
    # fast path: flat innermost loop
    # ------------------------------------------------------------------
    def _exec_flat_loop(self, loop: Loop, ivs, buffers, dram_bpc, result) -> None:
        info = self._analyze(loop)
        trips = loop.trips

        # true FP event increments (whole-phase counts precomputed)
        for (width, prec, is_fma), total in info.fp_events_total:
            self.pmu.add_fp(width, prec, total, is_fma)

        # functional memory traffic.  On the C datapath the fast engine
        # replays a cached access plan through the kernel; otherwise the
        # identical emission stream goes one port call at a time
        # (single-site bodies stream their whole trip range in one
        # emission; multi-site bodies interleave in iteration order so
        # cross-site locality within an iteration is preserved).
        if info.mem_sites and self._compiled:
            batch = self._datapath.execute_plan(
                self._plan_for(info, loop, ivs, buffers)
            )
        else:
            batch = BatchStats()
            for site, lines, node in self._iter_emissions(
                info, loop, ivs, buffers
            ):
                batch.merge(self._dispatch(site.kind, lines, node,
                                           site.site_id))

        # cycle cost of the phase
        cost = phase_cycles(
            self.ports, self.config, info.fp_ops_total,
            info.load_widths_total, info.store_widths_total,
            chain_cycles=info.chain_cycles_total,
            batch=batch, params=self.timing,
            dram_bytes_per_cycle=dram_bpc,
        )

        # the reissue overcount artifact: each slot re-counts the body's
        # load-dependent FP instructions once
        slots = 0
        reissue_flops = 0
        if info.dep_fp_terms:
            slots = reissue_slots(self.config, batch, self.timing)
            if slots:
                for (width, prec, is_fma), instrs, term in info.dep_fp_terms:
                    self.pmu.add_fp(width, prec, instrs * slots, is_fma)
                    reissue_flops += term * slots

        result.cycles += cost.total
        result.instructions += info.body_instructions * trips
        result.batch.merge(batch)
        result.phases.append(cost)

        bus = self.bus
        if bus.enabled:
            bus.emit(TraceEvent(
                PHASE, f"loop:{loop.loop_id}", bus.cursor,
                core=self.core_id, dur=cost.total,
                args={
                    "trips": trips,
                    "dominant": cost.dominant,
                    "bounds": cost.as_dict(),
                    "batch": batch.as_dict(),
                    "dram_bpc": dram_bpc,
                    "mlp": self.timing.mlp,
                    "reissue_slots": slots,
                    "reissue_flops": reissue_flops,
                    "instructions": info.body_instructions * trips,
                    "flops": info.flops_per_trip * trips,
                },
            ))
            bus.cursor += cost.total

    def _dispatch(self, kind: str, line_list, node: int,
                  stream_id: int = 0) -> BatchStats:
        """Route one line batch to the right port operation (the
        reference path)."""
        if kind == "prefetch":
            return self.port.software_prefetch(line_list, node=node)
        if kind == "flush":
            return self.port.flush_lines(line_list, node=node)
        return self.port.access_lines(
            line_list,
            is_write=(kind in ("store", "ntstore")),
            nt=(kind == "ntstore"),
            node=node,
            stream_id=stream_id,
        )

    def _access(self, kind: str, first: int, last: int,
                node: int) -> BatchStats:
        """One straight-line instruction's lines ``first..last``: on the
        C datapath a one-run plan, so the kernel performs every state
        transition; otherwise one port call."""
        if not self._compiled:
            return self._dispatch(kind, list(range(first, last + 1)), node)
        return self._datapath.execute_plan(AccessPlan.one_run(
            kind, list(range(first, last + 1)), node, self.port.node))

    def _site_base_stride(self, site: _MemSite, loop_id: str, ivs,
                          buffers) -> Tuple[int, int, int]:
        """(absolute base, stride w.r.t. the loop iv, home node)."""
        addr = site.instr.addr
        alloc = buffers[addr.buffer]
        base = alloc.base + addr.offset
        stride = 0
        for lid, s in addr.strides:
            if lid == loop_id:
                stride = s
            else:
                base += ivs[lid] * s
        return base, stride, alloc.node

    def _iter_emissions(self, info: _LoopInfo, loop: Loop, ivs, buffers):
        """Yield one flat-loop execution's ``(site, lines, node)`` stream.

        This is the canonical emission order both engines share: the
        walk dispatches each emission as one port call; the fast engine
        on the C datapath captures the stream into an
        :class:`~repro.engine.plan.AccessPlan` (see ``docs/ENGINE.md``).
        A single site streams its whole trip range as one emission;
        multi-site bodies interleave per :meth:`_iter_interleaved`.
        """
        sites = info.mem_sites
        if not sites:
            return
        if len(sites) == 1:
            site = sites[0]
            lines, node = self._site_lines(
                site, loop.loop_id, loop.trips, ivs, buffers
            )
            yield site, lines, node
        else:
            yield from self._iter_interleaved(info, loop, ivs, buffers)

    def _plan_for(self, info: _LoopInfo, loop: Loop, ivs,
                  buffers) -> AccessPlan:
        """The access plan of a walked flat loop on the C datapath.

        Symbolically plannable loops resolve through the two-tier
        cache: the structure interns once per process (see
        :data:`repro.engine.plan.SYMBOLIC_REGISTRY`), and each concrete
        binding — trip count, site ids, per-site (base, stride, home) —
        memoises its materialisation in the per-core bound tier.  The
        rest (gathers, negative own-loop strides) is packed from the
        emission walk, uncached: on the C datapath a loop is walked only
        inside a top-level node the nest executor refused, and such a
        node raises before it completes.
        """
        cache = self.plan_cache
        sym = info.symbolic
        if sym is None:
            if info.skey is None:
                with SPANS("engine.compile"):
                    return AccessPlan.from_emissions(
                        self._iter_emissions(info, loop, ivs, buffers),
                        own_node=self.port.node)
            sym = cache.resolve_symbolic(info.skey)
            info.symbolic = sym
        else:
            cache.note_symbolic_hit()
        loop_id = loop.loop_id
        binding = tuple(
            self._site_base_stride(site, loop_id, ivs, buffers)
            for site in info.mem_sites
        )
        bkey = (sym.plan_id, loop.trips, info.sid_tuple, binding)
        plan = cache.get_bound(bkey)
        if plan is None:
            port = self.port
            descs = [
                (site.kind, site.site_id, base, stride,
                 site.width_bits // 8, node)
                for site, (base, stride, node)
                in zip(info.mem_sites, binding)
            ]
            with SPANS("engine.compile"):
                plan = sym.bind(descs, loop.trips, self._line_shift,
                                port.node)
            cache.put_bound(bkey, plan)
        return plan

    def _iter_interleaved(self, info: _LoopInfo, loop: Loop, ivs, buffers):
        """Walk a multi-site loop in iteration order at line granularity.

        Each affine site emits under the monotone frontier rule and each
        gather site under consecutive-duplicate coalescing, with sites
        visited in body order within an iteration.  Iterations where no
        affine site can cross a line boundary are skipped in closed
        form, so the walk costs O(lines emitted + gather trips), not
        O(trips) — while emitting exactly the iteration-order stream.
        """
        trips = loop.trips
        shift = self._line_shift
        sites = []
        has_gather = False
        for site in info.mem_sites:
            if site.kind == "gather":
                positions, node = self._gather_positions(
                    site, loop.loop_id, trips, ivs, buffers
                )
                width = site.width_bits // 8
                # base/stride unused for gathers; positions precomputed
                sites.append([site, positions, None, node, width, -1])
                has_gather = True
                continue
            base, stride, node = self._site_base_stride(
                site, loop.loop_id, ivs, buffers
            )
            if stride < 0:
                raise ExecutionError(
                    "negative loop strides are not supported in loop bodies "
                    "with multiple memory instructions"
                )
            width = site.width_bits // 8
            sites.append([site, base, stride, node, width, -1])
        t = 0
        while t < trips:
            for record in sites:
                site, base, stride, node, width, last = record
                if stride is None:  # gather: positions precomputed
                    pos = int(base[t])
                    first = pos >> shift
                    end = (pos + width - 1) >> shift
                    lines = [] if first == last else [first]
                    if end != first:
                        lines.append(end)
                    record[5] = end
                    if lines:
                        yield site, lines, node
                    continue
                pos = base + t * stride
                first = pos >> shift
                end = (pos + width - 1) >> shift
                if end <= last:
                    continue
                lo = first if first > last else last + 1
                if lo == end:
                    lines = [end]
                else:
                    lines = list(range(lo, end + 1))
                record[5] = end
                yield site, lines, node
            if has_gather:
                # gather streams are data-dependent: visit every trip
                t += 1
                continue
            # skip ahead to the next iteration at which some affine
            # site's [start..end] window reaches a line past its frontier
            nxt = trips
            for record in sites:
                stride = record[2]
                if not stride:
                    continue
                base, width, last = record[1], record[4], record[5]
                need = ((last + 1) << shift) - base - width + 1
                t_cross = -(-need // stride)
                if t_cross < nxt:
                    nxt = t_cross
            t = max(nxt, t + 1)

    def _gather_positions(self, site: _MemSite, loop_id: str, trips: int,
                          ivs, buffers):
        """(absolute byte positions array, home node) for a gather."""
        instr = site.instr
        alloc = buffers[instr.buffer]
        table = self._tables[instr.index_addr.buffer]
        idx0 = instr.index_addr.offset
        stride = 0
        for lid, st in instr.index_addr.strides:
            if lid == loop_id:
                stride = st
            else:
                idx0 += ivs[lid] * st
        last = idx0 + (trips - 1) * stride
        check_index_range(instr, min(idx0, last), max(idx0, last),
                          len(table))
        if stride == 0:
            # one position per trip: a two-line gather re-touches both
            # lines every iteration under consecutive-dedup semantics
            indices = np.full(trips, idx0, dtype=np.int64)
        else:
            indices = idx0 + np.arange(trips, dtype=np.int64) * stride
        return alloc.base + table[indices], alloc.node

    def _site_lines(self, site: _MemSite, loop_id: str, trips: int,
                    ivs, buffers) -> Tuple[list, int]:
        if site.kind == "gather":
            positions, node = self._gather_positions(
                site, loop_id, trips, ivs, buffers
            )
            shift = self._line_shift
            width_bytes = site.width_bits // 8
            start = positions >> shift
            end = (positions + (width_bytes - 1)) >> shift
            if np.array_equal(start, end):
                lines = start
            else:
                lines = np.column_stack((start, end)).ravel()
            if lines.size > 1:
                keep = np.empty(lines.size, dtype=bool)
                keep[0] = True
                np.not_equal(lines[1:], lines[:-1], out=keep[1:])
                lines = lines[keep]
            return lines.tolist(), node
        base, stride, node = self._site_base_stride(site, loop_id, ivs, buffers)
        width_bytes = site.width_bits // 8
        shift = self._line_shift
        if stride == 0:
            first = base >> shift
            last = (base + width_bytes - 1) >> shift
            return list(range(first, last + 1)), node
        positions = base + np.arange(trips, dtype=np.int64) * stride
        start = positions >> shift
        end = (positions + (width_bytes - 1)) >> shift
        lines: List[int] = []
        if stride > 0:
            # ascending frontier: each crossing iteration emits the lines
            # between the frontier and its window end, skipping gap lines
            # the window never covers
            mask = np.empty(trips, dtype=bool)
            mask[0] = True
            np.greater(end[1:], end[:-1], out=mask[1:])
            frontier = -1
            for t in np.flatnonzero(mask):
                hi = int(end[t])
                lo = int(start[t])
                if lo <= frontier:
                    lo = frontier + 1
                if lo > hi:
                    continue
                lines.extend(range(lo, hi + 1))
                frontier = hi
        else:
            # descending frontier (only legal for single-site bodies):
            # new lines appear below the lowest line touched so far
            mask = np.empty(trips, dtype=bool)
            mask[0] = True
            np.less(start[1:], start[:-1], out=mask[1:])
            floor_line = None
            for t in np.flatnonzero(mask):
                lo = int(start[t])
                hi = int(end[t])
                if floor_line is not None and hi >= floor_line:
                    hi = floor_line - 1
                if lo > hi:
                    continue
                lines.extend(range(lo, hi + 1))
                floor_line = lo
        return lines, node

    # ------------------------------------------------------------------
    # slow path: straight-line instruction
    # ------------------------------------------------------------------
    def _exec_single(self, node, ivs, buffers, dram_bpc, result) -> None:
        result.instructions += 1
        if isinstance(node, VecOp):
            if node.flops:
                self.pmu.add_fp(node.width_bits, node.precision, 1,
                                node.op == "fma")
            cost = self.ports.fp_issue_cycles({(node.op, node.width_bits): 1})
            result.cycles += cost
            bus = self.bus
            if bus.enabled:
                # a retired-op batch with a cycle stamp: without it the
                # timeline sampler could not attribute straight-line
                # flops (or their issue cycles) to a window
                bus.emit(TraceEvent(
                    PHASE, f"instr:{node.op}", bus.cursor,
                    core=self.core_id, dur=cost,
                    args={
                        "trips": 1,
                        "dominant": "fp_issue",
                        "bounds": {"fp_issue": cost},
                        "batch": {},
                        "dram_bpc": dram_bpc,
                        "mlp": self.timing.mlp,
                        "reissue_slots": 0,
                        "reissue_flops": 0,
                        "instructions": 1,
                        "flops": node.flops,
                    },
                ))
                bus.cursor += cost
            return
        label = type(node).__name__.lower()
        if isinstance(node, GatherLoad):
            kind = label = "gather"
        elif isinstance(node, PrefetchHint):
            kind = "prefetch"
        elif isinstance(node, Flush):
            kind = "flush"
        elif isinstance(node, Load):
            kind = "load"
        elif isinstance(node, Store):
            kind = "ntstore" if node.nt else "store"
        else:
            raise ExecutionError(f"cannot execute node {node!r}")
        if kind == "gather":
            alloc = buffers[node.buffer]
            table = self._tables[node.index_addr.buffer]
            index = node.index_addr.evaluate(ivs)
            check_index_range(node, index, index, len(table))
            base = alloc.base + int(table[index])
        else:
            addr = node.addr
            alloc = buffers[addr.buffer]
            base = alloc.base + addr.offset + sum(
                ivs[lid] * s for lid, s in addr.strides
            )
        width_bytes = getattr(node, "width_bits", 64) // 8
        shift = self._line_shift
        stats = self._access(kind, base >> shift,
                             (base + width_bytes - 1) >> shift, alloc.node)
        cost = phase_cycles(
            self.ports, self.config,
            {},
            {node.width_bits: 1} if kind in ("load", "gather") else {},
            {node.width_bits: 1} if isinstance(node, Store) else {},
            chain_cycles=0.0, batch=stats, params=self.timing,
            dram_bytes_per_cycle=dram_bpc,
        )
        result.cycles += cost.total
        result.batch.merge(stats)
        result.phases.append(cost)
        self._emit_single_phase(label, cost, stats, dram_bpc)

    def _emit_single_phase(self, label: str, cost: PhaseCost,
                           stats: BatchStats, dram_bpc: float) -> None:
        """Trace one straight-line memory instruction as a tiny phase."""
        bus = self.bus
        if not bus.enabled:
            return
        bus.emit(TraceEvent(
            PHASE, f"instr:{label}", bus.cursor,
            core=self.core_id, dur=cost.total,
            args={
                "trips": 1,
                "dominant": cost.dominant,
                "bounds": cost.as_dict(),
                "batch": stats.as_dict(),
                "dram_bpc": dram_bpc,
                "mlp": self.timing.mlp,
                "reissue_slots": 0,
                "reissue_flops": 0,
                "instructions": 1,
                "flops": 0,
            },
        ))
        bus.cursor += cost.total

    # ------------------------------------------------------------------
    # body analysis (cached)
    # ------------------------------------------------------------------
    def _analyze(self, loop: Loop) -> _LoopInfo:
        # keyed by id() for speed; the cached tuple holds a strong
        # reference to the loop so its id can never be recycled
        cached = self._loop_info.get(id(loop))
        if cached is not None:
            return cached[1]
        fp_ops: Dict[Tuple[str, int], int] = {}
        fp_events: Dict[Tuple[int, str, bool], int] = {}
        dep_fp_events: Dict[Tuple[int, str, bool], int] = {}
        chains: Dict[str, int] = {}
        mem_sites: List[_MemSite] = []
        load_widths: Dict[int, int] = {}
        store_widths: Dict[int, int] = {}
        tainted = set()
        flops_per_trip = 0

        for instr in loop.body:
            if isinstance(instr, VecOp):
                key = (instr.op, instr.width_bits)
                fp_ops[key] = fp_ops.get(key, 0) + 1
                flops_per_trip += instr.flops
                if instr.flops:
                    ekey = (instr.width_bits, instr.precision, instr.op == "fma")
                    fp_events[ekey] = fp_events.get(ekey, 0) + 1
                    if any(src.name in tainted for src in instr.srcs):
                        dep_fp_events[ekey] = dep_fp_events.get(ekey, 0) + 1
                        tainted.add(instr.dst.name)
                if instr.dst in instr.srcs:
                    chains[instr.dst.name] = (
                        chains.get(instr.dst.name, 0) + self.ports.latency(instr.op)
                    )
            elif isinstance(instr, Load):
                tainted.add(instr.dst.name)
                load_widths[instr.width_bits] = (
                    load_widths.get(instr.width_bits, 0) + 1
                )
                mem_sites.append(self._site(instr, "load", instr.width_bits))
            elif isinstance(instr, GatherLoad):
                tainted.add(instr.dst.name)
                load_widths[instr.width_bits] = (
                    load_widths.get(instr.width_bits, 0) + 1
                )
                mem_sites.append(self._site(instr, "gather",
                                            instr.width_bits))
            elif isinstance(instr, Store):
                kind = "ntstore" if instr.nt else "store"
                store_widths[instr.width_bits] = (
                    store_widths.get(instr.width_bits, 0) + 1
                )
                mem_sites.append(self._site(instr, kind, instr.width_bits))
            elif isinstance(instr, PrefetchHint):
                mem_sites.append(self._site(instr, "prefetch", 64))
            elif isinstance(instr, Flush):
                mem_sites.append(self._site(instr, "flush", 64))
            else:
                raise ExecutionError(f"unexpected node in flat loop: {instr!r}")

        # symbolic-tier structural key: loop/kernel identity only, no
        # size-dependent values (trips, strides, bases) — the dgemm
        # kernel at n=64 and n=160 must produce the same key
        skey = None
        if mem_sites and loop.trips > 0:
            parts: Optional[list] = []
            for site in mem_sites:
                if site.kind == "gather":
                    parts = None
                    break
                addr = site.instr.addr
                own = 0
                for lid, s in addr.strides:
                    if lid == loop.loop_id:
                        own = s
                if own < 0:
                    parts = None
                    break
                parts.append((site.kind, site.width_bits, addr.buffer,
                              tuple(lid for lid, _s in addr.strides)))
            if parts is not None:
                skey = (loop.loop_id, tuple(parts))

        # phase skeleton: trip counts are static per loop object, so the
        # whole-phase scaling (seed code redid this every execution) is
        # folded into the analysis cache
        trips = loop.trips
        chain_latency = max(chains.values(), default=0)
        dep_fp_terms = []
        for (width, prec, is_fma), instrs in dep_fp_events.items():
            lanes = width // (64 if prec == "f64" else 32)
            dep_fp_terms.append((
                (width, prec, is_fma), instrs,
                instrs * lanes * (2 if is_fma else 1),
            ))
        info = _LoopInfo(
            fp_ops=fp_ops,
            fp_events=fp_events,
            dep_fp_events=dep_fp_events,
            chain_latency=chain_latency,
            mem_sites=mem_sites,
            load_widths=load_widths,
            store_widths=store_widths,
            body_instructions=len(loop.body),
            flops_per_trip=flops_per_trip,
            fp_ops_total={k: c * trips for k, c in fp_ops.items()},
            load_widths_total={w: c * trips for w, c in load_widths.items()},
            store_widths_total={w: c * trips for w, c in store_widths.items()},
            chain_cycles_total=float(chain_latency * trips),
            fp_events_total=[
                (key, instrs * trips) for key, instrs in fp_events.items()
            ],
            dep_fp_terms=dep_fp_terms,
            skey=skey,
            sid_tuple=tuple(s.site_id for s in mem_sites),
        )
        self._loop_info[id(loop)] = (loop, info)
        return info

    def _site(self, instr, kind: str, width_bits: int) -> _MemSite:
        site = _MemSite(instr, kind, width_bits, self._next_site_id)
        self._next_site_id += 1
        return site
