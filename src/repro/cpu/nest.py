"""Nest lowering: program nodes to flat descriptors for the C kernel.

The fast engine on the compiled datapath runs whole loop nests through
``repro_execute_nest`` (``engine/_ckernel.c``) instead of walking them
in Python.  This module lowers a run of top-level program nodes into a
:class:`Nest` — the descriptor arrays that kernel entry walks — plus
the per-node static cost tables the core needs to turn the kernel's
per-phase counter rows into the columns of a
:class:`~repro.cpu.timing.PhaseTable`.

A descriptor is a preorder node list:

* ``loop`` / ``end`` bracket a non-flat loop (one induction-variable
  slot per nesting level; ``end`` links back to its ``loop``);
* ``flat`` is one flat-loop execution of affine sites (its own trip
  count, a slice of the site table), and ``flat_gather`` one holding a
  gather, which the kernel visits trip by trip;
* ``single`` is one straight-line memory instruction (one site);
* ``nop`` is a phase without memory traffic — a straight-line
  ``VecOp`` or a flat loop without memory sites — recorded only so its
  cost lands in program order.

Each site row carries the plan opcode, stream id, home, base, own-loop
stride, width, index and one stride per enclosing slot; bases and homes
are bound per execution from the buffer map (:meth:`Nest.bind`).  An
affine site's index is -1.  A gather's position is its buffer's base
plus ``tables[index + sum(iv * stride)]`` (:class:`IndexTables`), its
strides counting table entries; lowering checks every reachable entry
exists.  Zero-trip loops lower to nothing, as the walk skips them.

Lowering refuses (returns a reason from
:data:`~repro.engine.plan.NEST_FALLBACK_REASONS`) whatever the walk
must handle itself: multi-site bodies with a negative own-loop stride
(the walk raises ``ExecutionError`` for those), and anything whose walk
would raise — an address naming a loop outside its scope, an unknown
node, an FP mix the port model rejects.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Optional, Union

import numpy as np

from ..engine import ckernel
from ..engine.plan import _KIND_TO_OP
from ..errors import ExecutionError, ReproError
from ..isa.instructions import (
    Flush,
    GatherLoad,
    Load,
    Loop,
    PrefetchHint,
    Store,
    VecOp,
)

_NH, _NN, _NK, _NS = ckernel.NH, ckernel.NN, ckernel.NK, ckernel.NS
_NS_IVS = len(_NS)
_NN_FIELDS = len(_NN)

#: phase kinds of :attr:`Nest.phase` entries
PHASE_LOOP, PHASE_SINGLE, PHASE_VEC = "loop", "single", "vec"


class NestPhase:
    """Static description of one phase node (what the walk would cost
    and trace for it)."""

    __slots__ = ("kind", "label", "trips", "instructions", "flops",
                 "fp_events", "dep_terms", "dep_flops", "has_sites")

    def __init__(self, kind: str, label: str, trips: int,
                 instructions: int, flops: int, fp_events: list,
                 dep_terms: list, has_sites: bool) -> None:
        self.kind = kind
        self.label = label
        self.trips = trips
        self.instructions = instructions
        self.flops = flops
        #: ``((width, precision, is_fma), instrs)`` PMU adds per execution
        self.fp_events = fp_events
        #: ``((width, precision, is_fma), instrs, flops)`` per reissue slot
        self.dep_terms = dep_terms
        #: flops one reissue slot re-counts (the PHASE ``reissue_flops``)
        self.dep_flops = sum(flops for _key, _instrs, flops in dep_terms)
        self.has_sites = has_sites


class IndexTables:
    """A program's gather index tables packed back to back into one
    int64 array, the ``tables`` argument of ``repro_execute_nest``."""

    def __init__(self, tables: Dict[str, np.ndarray]) -> None:
        self.tables = tables
        #: table name -> position of its entry 0 in :attr:`packed`
        self.start = dict(zip(tables, accumulate(
            (len(table) for table in tables.values()), initial=0)))
        self.packed = np.concatenate([np.zeros(0, dtype=np.int64),
                                      *tables.values()])
        self.ptr = self.packed.ctypes.data


def check_index_range(node: GatherLoad, lo: int, hi: int,
                      entries: int) -> None:
    """Raise ``ExecutionError`` unless the gather's index-table entries
    ``lo..hi`` all exist (the walk and the lowering share this check)."""
    if lo < 0 or hi >= entries:
        raise ExecutionError(
            f"{node} reads index-table entries {lo}..{hi} of "
            f"{node.index_addr.buffer!r}, which has {entries}")


class Nest:
    """A lowered run of top-level nodes, ready to bind and execute."""

    def __init__(self, nodes: List[int], sites: list,
                 phases: Dict[int, NestPhase],
                 statics: Dict[int, tuple], depth: int, max_sites: int,
                 max_bound: int, line_shift: int,
                 tables: IndexTables) -> None:
        nnodes = len(nodes) // _NN_FIELDS
        self.nnodes = nnodes
        self.phase = phases
        self.hdr = np.zeros(len(_NH), dtype=np.int64)
        self.hdr[_NH["nodes"]] = nnodes
        self.hdr[_NH["depth"]] = depth
        self.hdr[_NH["shift"]] = line_shift
        self.nodes = np.array(nodes, dtype=np.int64).reshape(nnodes,
                                                             _NN_FIELDS)
        width = _NS_IVS + depth
        self.sites = np.zeros((len(sites), width), dtype=np.int64)
        buffers: List[str] = []
        bidx = []
        offsets = []
        for row, (op, sid, stride, nbytes, buf, offset, ivs, index) in zip(
                self.sites, sites):
            row[_NS["op"]] = op
            row[_NS["sid"]] = sid
            row[_NS["stride"]] = stride
            row[_NS["width"]] = nbytes
            row[_NS["index"]] = index
            for slot, iv_stride in ivs.items():
                row[_NS_IVS + slot] = iv_stride
            if buf not in buffers:
                buffers.append(buf)
            bidx.append(buffers.index(buf))
            offsets.append(offset)
        self.buffers = tuple(buffers)
        self._bidx = np.array(bidx, dtype=np.int64)
        self._offsets = np.array(offsets, dtype=np.int64)
        self._binding = None
        #: worst-case prefetched-set inserts of the largest phase
        self.room = 6 * max_bound + 8
        self.state = np.zeros(len(ckernel.NST) + depth
                              + 2 * max_sites, dtype=np.int64)
        #: per-node static cost table, indexed by node number: columns
        #: FP issue, memory issue, chain bound (phases) and issue cycles
        #: (straight-line ``VecOp``\ s)
        self.statics = np.zeros((nnodes, 4))
        self.is_vec = np.zeros(nnodes, dtype=bool)
        self.instructions = np.zeros(nnodes, dtype=np.int64)
        for pc, row in statics.items():
            self.statics[pc] = row
            self.is_vec[pc] = phases[pc].kind == PHASE_VEC
            self.instructions[pc] = phases[pc].instructions
        self.has_vec = bool(self.is_vec.any())
        self.has_dep = any(p.dep_terms for p in phases.values())
        self.tables = tables
        self.hdr_p = self.hdr.ctypes.data
        self.nodes_p = self.nodes.ctypes.data
        self.sites_p = self.sites.ctypes.data

    def bind(self, buffer_map, own_node: int) -> None:
        """Write absolute bases and resolved homes into the site table
        (skipped when the buffer placement is unchanged)."""
        allocs = [buffer_map[name] for name in self.buffers]
        binding = tuple((a.base, a.node) for a in allocs)
        if binding == self._binding or not self.buffers:
            return
        self._binding = binding
        bases = np.array([b for b, _n in binding], dtype=np.int64)
        homes = np.array([own_node if n is None else n
                          for _b, n in binding], dtype=np.int64)
        sites = self.sites
        sites[:, _NS["base"]] = bases[self._bidx] + self._offsets
        sites[:, _NS["home"]] = homes[self._bidx]
        sites[:, _NS["remote"]] = sites[:, _NS["home"]] != own_node


def _line_bound(stride: int, width: int, trips: int, shift: int) -> int:
    """Upper bound on the lines one site emits in one execution: each
    line at most once, within the span every window covers."""
    per_window = ((width - 1) >> shift) + 2
    if stride == 0:
        return per_window
    span = ((abs(stride) * (trips - 1) + width - 1) >> shift) + 2
    return min(trips * per_window, span)


_SINGLE_OPS = ((Load, ckernel.OP_DEMAND_READ),
               (GatherLoad, ckernel.OP_DEMAND_READ),
               (PrefetchHint, ckernel.OP_PREFETCH), (Flush, ckernel.OP_FLUSH))


class NestBuilder:
    """Accumulates consecutive top-level nodes into one :class:`Nest`."""

    def __init__(self, core, tables: IndexTables) -> None:
        self.core = core
        self.tables = tables
        self.nodes: List[int] = []
        #: site rows: (op, sid, own stride, width, buffer, offset,
        #: {slot: iv stride}, packed table index or -1)
        self.sites: list = []
        self.phases: Dict[int, NestPhase] = {}
        self.statics: Dict[int, tuple] = {}
        #: loop id -> (iv slot, trips) of the enclosing non-flat loops
        self.scope: Dict[str, tuple] = {}
        self.depth = 0
        self.max_sites = 0
        self.max_bound = 0

    @property
    def nnodes(self) -> int:
        return len(self.nodes) // _NN_FIELDS

    def add_top(self, node) -> Optional[str]:
        """Lower one top-level node; on refusal nothing is kept and the
        fallback reason is returned."""
        mark = (len(self.nodes), len(self.sites))
        reason = self._add(node)
        if reason is None:
            return None
        del self.nodes[mark[0]:]
        del self.sites[mark[1]:]
        pcs = mark[0] // _NN_FIELDS
        for table in (self.phases, self.statics):
            for pc in [pc for pc in table if pc >= pcs]:
                del table[pc]
        return reason

    def build(self) -> Nest:
        core = self.core
        return Nest(self.nodes, self.sites, self.phases, self.statics,
                    self.depth, self.max_sites, self.max_bound,
                    core._line_shift, self.tables)

    # ------------------------------------------------------------------
    def _node(self, kind: str, slot: int = 0, trips: int = 1,
              link: int = 0, nsites: int = 0, bound: int = 0) -> int:
        pc = self.nnodes
        self.nodes.extend(ckernel.row(
            _NN, kind=_NK[kind], slot=slot, trips=trips, link=link,
            site0=len(self.sites) - nsites, nsites=nsites, bound=bound))
        return pc

    def _phase(self, kind: str, phase: NestPhase, statics: tuple,
               nsites: int = 0, trips: int = 1, bound: int = 0) -> None:
        pc = self._node(kind, trips=trips, nsites=nsites, bound=bound)
        self.phases[pc] = phase
        self.statics[pc] = statics
        self.max_bound = max(self.max_bound, bound)

    def _add(self, node) -> Optional[str]:
        if isinstance(node, Loop):
            if node.trips == 0:
                return None
            if not any(isinstance(child, Loop) for child in node.body):
                return self._flat(node)
            if node.loop_id in self.scope:
                return "unsupported"
            slot = len(self.scope)
            self.depth = max(self.depth, slot + 1)
            self.scope[node.loop_id] = (slot, node.trips)
            try:
                begin = self._node("loop", slot=slot, trips=node.trips)
                for child in node.body:
                    reason = self._add(child)
                    if reason is not None:
                        return reason
                self._node("end", slot=slot, trips=node.trips, link=begin)
            finally:
                del self.scope[node.loop_id]
            return None
        if isinstance(node, VecOp):
            return self._vec(node)
        if isinstance(node, (Load, Store, GatherLoad, PrefetchHint, Flush)):
            return self._single(node)
        return "unsupported"

    def _outer_strides(self, strides, own_id: Optional[str]):
        """{slot: stride} of an address's enclosing-loop terms, plus the
        own-loop stride; None when a term names a loop out of scope."""
        own = 0
        ivs: Dict[int, int] = {}
        for lid, stride in strides:
            if lid == own_id:
                own = stride
            elif lid in self.scope:
                ivs[self.scope[lid][0]] = stride
            else:
                return None
        return own, ivs

    def _site(self, node, op: int, sid: int,
              own: Optional[Loop]) -> Union[tuple, str]:
        """One memory instruction's site row (``own`` is its flat loop,
        None for a straight-line one), or why it cannot be lowered."""
        own_id = own.loop_id if own is not None else None
        if not isinstance(node, GatherLoad):
            addr = node.addr
            terms = self._outer_strides(addr.strides, own_id)
            if terms is None:
                return "unsupported"
            nbytes = getattr(node, "width_bits", 64) // 8
            return (op, sid, terms[0], nbytes, addr.buffer, addr.offset,
                    terms[1], -1)
        iaddr = node.index_addr
        terms = self._outer_strides(iaddr.strides, own_id)
        if terms is None:
            return "unsupported"
        trips = {lid: trips for lid, (_slot, trips) in self.scope.items()}
        if own is not None:
            trips[own_id] = own.trips
        lo, hi = node.index_range(trips)
        check_index_range(node, lo, hi,
                          len(self.tables.tables[iaddr.buffer]))
        return (op, sid, terms[0], node.bytes, node.buffer, 0, terms[1],
                self.tables.start[iaddr.buffer] + iaddr.offset)

    def _flat(self, loop: Loop) -> Optional[str]:
        core = self.core
        try:
            info = core._analyze(loop)
            fp_issue = (core.ports.fp_issue_cycles(info.fp_ops_total)
                        if info.fp_ops_total else 0.0)
            mem_issue = core.ports.mem_issue_cycles(
                info.load_widths_total, info.store_widths_total)
        except ReproError:
            return "unsupported"
        rows = []
        for site in info.mem_sites:
            row = self._site(site.instr, _KIND_TO_OP[site.kind],
                             site.site_id, loop)
            if isinstance(row, str):
                return row
            rows.append(row)
        affine = [row for row in rows if row[7] < 0]
        if len(rows) > 1 and any(row[2] < 0 for row in affine):
            return "negative_multisite_stride"
        trips = loop.trips
        shift = core._line_shift
        # a gather emits at most its [first, end] line pair per trip
        bound = (sum(_line_bound(row[2], row[3], trips, shift)
                     for row in affine)
                 + 2 * trips * (len(rows) - len(affine)))
        self.sites.extend(rows)
        self.max_sites = max(self.max_sites, len(rows))
        phase = NestPhase(
            PHASE_LOOP, f"loop:{loop.loop_id}", trips,
            info.body_instructions * trips, info.flops_per_trip * trips,
            info.fp_events_total, info.dep_fp_terms, bool(rows),
        )
        kind = ("nop" if not rows else
                "flat" if len(affine) == len(rows) else "flat_gather")
        self._phase(kind, phase,
                    (fp_issue, mem_issue, info.chain_cycles_total, 0.0),
                    nsites=len(rows), trips=trips, bound=bound)
        return None

    def _single(self, node) -> Optional[str]:
        core = self.core
        if isinstance(node, Store):
            op = ckernel.OP_NTSTORE if node.nt else ckernel.OP_DEMAND_WRITE
        else:
            op = next(code for cls, code in _SINGLE_OPS
                      if isinstance(node, cls))
        row = self._site(node, op, 0, None)
        if isinstance(row, str):
            return row
        is_load = isinstance(node, (Load, GatherLoad))
        mem_issue = core.ports.mem_issue_cycles(
            {node.width_bits: 1} if is_load else {},
            {node.width_bits: 1} if isinstance(node, Store) else {},
        )
        self.sites.append(row)
        self.max_sites = max(self.max_sites, 1)
        label = ("gather" if isinstance(node, GatherLoad)
                 else type(node).__name__.lower())
        phase = NestPhase(PHASE_SINGLE, f"instr:{label}", 1, 1, 0, [], [],
                          True)
        self._phase("single", phase, (0.0, mem_issue, 0.0, 0.0), nsites=1,
                    bound=((row[3] - 1) >> core._line_shift) + 2)
        return None

    def _vec(self, node: VecOp) -> Optional[str]:
        try:
            cost = self.core.ports.fp_issue_cycles(
                {(node.op, node.width_bits): 1})
        except ReproError:
            return "unsupported"
        events = []
        if node.flops:
            events.append(((node.width_bits, node.precision,
                            node.op == "fma"), 1))
        phase = NestPhase(PHASE_VEC, f"instr:{node.op}", 1, 1, node.flops,
                          events, [], False)
        self._phase("nop", phase, (0.0, 0.0, 0.0, cost))
        return None
