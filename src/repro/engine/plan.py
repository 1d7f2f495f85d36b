"""Compile tier: flat loops lowered to reusable access plans.

An :class:`AccessPlan` is the fully evaluated memory side of one flat
(innermost) loop execution: the exact cache-line touch stream every
site emits, in canonical emission order, pre-concatenated into
:class:`PlanSegment` runs that the execute tier
(:mod:`repro.engine.datapath`) streams through the hierarchy without
re-deriving anything.

Plans are *captured from the interpreter's own emission generator*, so
by construction a plan contains the same lines, in the same order, that
the per-line reference engine would dispatch — the foundation of the
fast/reference equivalence guarantee (see ``docs/ENGINE.md``).

Plans are cached in two tiers (see :class:`PlanCache`):

* the **symbolic tier** is a process-global registry keyed on *loop
  structure alone* — the loop id plus, per site, the access kind,
  width, buffer name, and referenced induction variables.  Nothing
  size-dependent (trip counts, strides, bases) enters the key, so the
  dgemm kernel at n=64 and n=160 resolves to the *same*
  :class:`SymbolicPlan`: segments are parameterised over trip-count
  and base/stride symbols and only materialised at binding time.
* the **bound tier** is per core: a symbolic plan plus one concrete
  binding — ``(trips, site ids, per-site (base, stride, home))`` —
  memoises the materialised :class:`AccessPlan`, so re-executions of
  the same (program, buffer_map) pair (A/B measurement windows, reps,
  warm-protocol reruns) replay without re-lowering anything.

Loops the symbolic form cannot express — gathers (data-dependent
streams) and negative own-loop strides — fall back to the concrete
capture keying of earlier revisions: the loop object by ``id`` (strong
ref), outer induction-variable values, buffer bases/homes, and gather
index tables by ``id``.

``PlanCacheStats.hits``/``misses`` count symbolic-tier resolution: a
lookup misses only the first time a loop *structure* is seen in the
process, which is what makes the hit rate size-polymorphic (a sweep
over many problem sizes no longer pays one miss per size per address
context).  Materialisation work is tracked separately by
``built_segments``/``built_lines``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

#: flush the whole per-core plan cache once it holds this many line
#: entries (a coarse memory bound; sweeps over many distinct programs
#: on one long-lived machine otherwise grow without limit)
PLAN_CACHE_MAX_LINES = 8_000_000

#: why a top-level program node was walked in Python instead of running
#: through the nest executor (``Core._run_body``; docs/ENGINE.md)
NEST_FALLBACK_REASONS = (
    "gather",                     # data-dependent addressing in the nest
    "negative_multisite_stride",  # the walk raises ExecutionError for it
    "no_ckernel",                 # the C datapath is not in use
    "reference_engine",           # engine="reference" always walks
    "unsupported",                # out-of-scope iv, unknown node, cost error
)

#: segment opcodes (``PlanSegment.op``), dispatched on by the datapath
OP_DEMAND_READ = 0   # 'load' / 'gather'
OP_DEMAND_WRITE = 1  # 'store'
OP_NTSTORE = 2
OP_PREFETCH = 3
OP_FLUSH = 4

_KIND_TO_OP = {
    "load": OP_DEMAND_READ,
    "gather": OP_DEMAND_READ,
    "store": OP_DEMAND_WRITE,
    "ntstore": OP_NTSTORE,
    "prefetch": OP_PREFETCH,
    "flush": OP_FLUSH,
}


@dataclass
class PlanSegment:
    """A maximal run of consecutive emissions from one memory site.

    Beyond the captured emission (``kind``/``lines``/``home``/
    ``stream_id``), the compile tier precomputes the integer opcode
    ``op`` (see ``OP_*``) and ``rhome``/``remote``, the NUMA home
    resolved against the owning core's node (plans are cached per core,
    so this is static) — the columns of the packed run form.
    """

    kind: str        # 'load' | 'store' | 'ntstore' | 'gather' | 'prefetch' | 'flush'
    lines: List[int]
    home: int        # NUMA home node of the data
    stream_id: int   # site id, the stride prefetcher's PC analogue
    op: int = OP_DEMAND_READ
    rhome: int = 0
    remote: bool = False
    #: merged-run form only (see ``AccessPlan.runs``): when a run fuses
    #: segments from several sites, ``sids[i]`` is the stream id of
    #: ``lines[i]``; ``None`` means the whole run shares ``stream_id``
    sids: Optional[List[int]] = None


@dataclass
class PackedPlan:
    """Array form of a plan's runs, consumed by the compiled datapath.

    Layout shared with ``engine/_ckernel.c`` (keep the six meta columns
    in sync with the ``RM_*`` enum there and in ``engine/ckernel.py``):

    * ``meta`` — one int64 row per run:
      ``[op, rhome, remote, line_offset, nlines, sid_mode]`` where
      ``sid_mode >= 0`` is the uniform stream id of the whole run and
      ``-1`` means per-line ids are in ``sids``.
    * ``lines`` — all runs' line numbers, flat, indexed by
      ``line_offset``/``nlines``.
    * ``sids`` — per-line stream ids aligned with ``lines`` (only read
      for demand runs with ``sid_mode == -1``).

    The kernel performs the per-line page check itself, so the packed
    form is position-independent and cheap to materialise from the
    vectorized affine lowering without any ``.tolist()`` round trip.
    """

    meta: np.ndarray
    lines: np.ndarray
    sids: np.ndarray
    #: cached raw data pointers (``ndarray.ctypes`` allocates a wrapper
    #: per access; cached plans replay thousands of times)
    _ptrs: Optional[Tuple[int, int, int]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def nruns(self) -> int:
        return self.meta.shape[0]

    @property
    def ptrs(self) -> Tuple[int, int, int]:
        """(meta, lines, sids) raw data pointers for the C kernel."""
        if self._ptrs is None:
            self._ptrs = (self.meta.ctypes.data, self.lines.ctypes.data,
                          self.sids.ctypes.data)
        return self._ptrs


@dataclass
class AccessPlan:
    """The lowered memory traffic of one flat-loop execution context."""

    segments: List[PlanSegment]
    total_lines: int = 0
    #: compiled-kernel form: consecutive ``segments`` with the same
    #: opcode and resolved home fused into flat runs.  Interleaved
    #: multi-site bodies (a dgemm inner loop alternating two load
    #: sites) otherwise average ~1 line per segment; fused runs restore
    #: long streams, carrying per-line stream ids in ``sids`` when
    #: sites mix
    runs: List[PlanSegment] = field(default_factory=list)
    #: array execution form for the compiled kernel (built directly by
    #: the affine lowering, or lazily from ``runs`` via
    #: :meth:`ensure_packed` for captured plans)
    packed: Optional[PackedPlan] = None

    @property
    def run_count(self) -> int:
        """Number of lowered execution units (for build telemetry)."""
        n = len(self.segments) or len(self.runs)
        if not n and self.packed is not None:
            n = self.packed.nruns
        return n

    def ensure_packed(self) -> PackedPlan:
        """The packed array form, built from ``runs`` on first use."""
        if self.packed is not None:
            return self.packed
        runs = self.runs
        meta = np.zeros((len(runs), 6), dtype=np.int64)
        total = sum(len(seg.lines) for seg in runs)
        lines = np.empty(total, dtype=np.int64)
        sids = np.zeros(total, dtype=np.int64)
        off = 0
        for k, seg in enumerate(runs):
            n = len(seg.lines)
            lines[off:off + n] = seg.lines
            if seg.sids is not None:
                sids[off:off + n] = seg.sids
                sid_mode = -1
            else:
                sid_mode = seg.stream_id
            row = meta[k]
            row[0] = seg.op
            row[1] = seg.rhome
            row[2] = 1 if seg.remote else 0
            row[3] = off
            row[4] = n
            row[5] = sid_mode
            off += n
        self.packed = PackedPlan(meta=meta, lines=lines, sids=sids)
        return self.packed

    @classmethod
    def from_emissions(cls, emissions: Iterable,
                       own_node: int) -> "AccessPlan":
        """Capture ``(site, lines, node)`` emissions into segments.

        Consecutive emissions from the same site are concatenated (the
        interleaved walker emits one short burst per crossing
        iteration); emissions from different sites are kept as separate
        segments so per-line execution order is preserved exactly.
        After capture the execute metadata is precomputed once — homes
        resolved, same-op segments fused into runs — this is the
        "lowering" the plan cache amortises across reps, A/B windows,
        and protocol reruns.
        """
        segments: List[PlanSegment] = []
        total = 0
        last_site_id = None
        current: List[int] = []
        for site, lines, node in emissions:
            total += len(lines)
            if site.site_id == last_site_id:
                current.extend(lines)
                continue
            current = list(lines)
            segments.append(
                PlanSegment(site.kind, current, node, site.site_id)
            )
            last_site_id = site.site_id

        for seg in segments:
            seg.op = _KIND_TO_OP[seg.kind]
            rhome = seg.home if seg.home is not None else own_node
            seg.rhome = rhome
            seg.remote = rhome != own_node

        # fuse consecutive same-(op, home) segments into execution runs;
        # per-line order is the concatenation order, so the line stream
        # the datapath replays is unchanged — only the loop bookkeeping
        # moves from per-segment to per-run
        runs: List[PlanSegment] = []
        owned = False  # runs[-1] is a private copy (safe to extend)
        for seg in segments:
            prev = runs[-1] if runs else None
            if prev is not None and seg.op == prev.op \
                    and seg.rhome == prev.rhome:
                if not owned:
                    prev = PlanSegment(
                        prev.kind, list(prev.lines), prev.home,
                        prev.stream_id, op=prev.op, rhome=prev.rhome,
                        remote=prev.remote,
                    )
                    runs[-1] = prev
                    owned = True
                if seg.op <= OP_DEMAND_WRITE:
                    # only demand traffic trains the stride prefetcher,
                    # so only demand runs need per-line stream ids
                    if prev.sids is not None:
                        prev.sids.extend(
                            [seg.stream_id] * len(seg.lines))
                    elif seg.stream_id != prev.stream_id:
                        prev.sids = [prev.stream_id] * len(prev.lines)
                        prev.sids.extend(
                            [seg.stream_id] * len(seg.lines))
                prev.lines.extend(seg.lines)
                continue
            runs.append(seg)
            owned = False
        return cls(segments=segments, total_lines=total, runs=runs)

    @classmethod
    def one_run(cls, kind: str, lines: List[int], home: int,
                own_node: int) -> "AccessPlan":
        """One straight-line instruction's lines as a single run, under
        the port calls' default stream id 0 (``Core._access``)."""
        seg = PlanSegment(kind, lines, home, 0, op=_KIND_TO_OP[kind],
                          rhome=home, remote=home != own_node)
        return cls(segments=[seg], total_lines=len(lines), runs=[seg])

    @classmethod
    def from_affine_sites(cls, sites, trips: int, line_shift: int,
                          own_node: int) -> "AccessPlan":
        """Vectorized lowering of an affine flat loop (1..n sites).

        ``sites`` is a list of ``(kind, site_id, base, stride,
        width_bytes, node)`` records in body order with non-negative
        strides.  Produces exactly the runs :meth:`from_emissions`
        builds from the interpreter's emission walk — per-site
        monotone-frontier crossings, the iteration-order merge, and the
        range expansion are computed in numpy instead of per-burst
        Python (the walker averages ~1 line per burst on interleaved
        bodies, so per-burst work dominates compile time otherwise).

        The plan carries only the :class:`PackedPlan` array form — the
        run metadata and flat line stream stay numpy end to end (no
        ``.tolist()``), which is what the compiled kernel consumes.  It
        has no segments: callers lower this way only on the C datapath,
        which never takes the segment replay.
        """
        nsites = len(sites)
        trange = np.arange(trips, dtype=np.int64)
        t_keys = []
        lo_parts = []
        hi_parts = []
        idx_parts = []
        for i, (kind, sid, base, stride, width, node) in enumerate(sites):
            pos = base + trange * stride
            end = (pos + (width - 1)) >> line_shift
            # crossing trips: first trip reaching each new window end
            # (ends are monotone for stride >= 0, so these are exactly
            # the walker's frontier-advancing visits)
            mask = np.empty(trips, dtype=bool)
            mask[0] = True
            np.greater(end[1:], end[:-1], out=mask[1:])
            crossings = np.flatnonzero(mask)
            hi = end[crossings]
            start = pos[crossings] >> line_shift
            lo = np.empty_like(hi)
            lo[0] = start[0]
            np.maximum(start[1:], hi[:-1] + 1, out=lo[1:])
            t_keys.append(crossings * nsites + i)
            lo_parts.append(lo)
            hi_parts.append(hi)
            idx_parts.append(np.full(crossings.size, i, dtype=np.int64))

        # merge bursts into iteration order (site order within a trip)
        order = np.argsort(np.concatenate(t_keys))
        lo_b = np.concatenate(lo_parts)[order]
        hi_b = np.concatenate(hi_parts)[order]
        si_b = np.concatenate(idx_parts)[order]
        ops = np.array([_KIND_TO_OP[s[0]] for s in sites], dtype=np.int64)
        rhomes = np.array(
            [own_node if s[5] is None else s[5] for s in sites],
            dtype=np.int64,
        )
        sid_by_site = np.array([s[1] for s in sites], dtype=np.int64)
        op_b = ops[si_b]
        rh_b = rhomes[si_b]

        # expand [lo..hi] burst windows into the flat line stream
        counts = hi_b - lo_b + 1
        cum = np.cumsum(counts)
        total = int(cum[-1])
        offs = np.arange(total, dtype=np.int64) \
            - np.repeat(cum - counts, counts)
        lines_flat = np.repeat(lo_b, counts) + offs
        sid_flat = np.repeat(sid_by_site[si_b], counts)
        line_cum = np.concatenate(([0], cum))

        # split at burst boundaries where the opcode or home changes
        brk = np.flatnonzero(
            (op_b[1:] != op_b[:-1]) | (rh_b[1:] != rh_b[:-1])) + 1
        bounds = np.concatenate(([0], brk, [counts.size]))

        b0s = bounds[:-1]
        offs = line_cum[b0s]
        meta = np.empty((b0s.size, 6), dtype=np.int64)
        meta[:, 0] = op_b[b0s]
        meta[:, 1] = rh_b[b0s]
        meta[:, 2] = meta[:, 1] != own_node
        meta[:, 3] = offs
        meta[:, 4] = line_cum[bounds[1:]] - offs
        smin = np.minimum.reduceat(sid_flat, offs)
        smax = np.maximum.reduceat(sid_flat, offs)
        meta[:, 5] = np.where(smin == smax, smin, -1)
        return cls(
            segments=[], total_lines=total,
            packed=PackedPlan(meta=meta, lines=lines_flat, sids=sid_flat),
        )


class SymbolicPlan:
    """One interned loop structure: the size-polymorphic plan.

    A symbolic plan is the compile artifact keyed on loop/kernel
    identity alone.  Its segments exist only as *symbols* — per-site
    access kind and width with free trip-count, base, stride, and home
    parameters — and :meth:`bind` materialises a concrete
    :class:`AccessPlan` for one assignment of those symbols via the
    vectorized affine lowering.  Interning is structural, so every
    program the same kernel generator emits (any problem size, any
    buffer placement) resolves to the same object.
    """

    __slots__ = ("plan_id", "skey")

    def __init__(self, plan_id: int, skey: tuple) -> None:
        self.plan_id = plan_id
        self.skey = skey

    def bind(self, sites, trips: int, line_shift: int,
             own_node: int) -> AccessPlan:
        """Materialise under one concrete symbol assignment.

        ``sites`` supplies the bound symbols in body order —
        ``(kind, site_id, base, stride, width_bytes, node)`` — and
        ``trips`` the bound trip count.
        """
        return AccessPlan.from_affine_sites(sites, trips, line_shift,
                                            own_node)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"SymbolicPlan(id={self.plan_id}, loop={self.skey[0]!r})"


class SymbolicRegistry:
    """Process-global interning table for :class:`SymbolicPlan`.

    Structural keys contain nothing machine- or placement-dependent, so
    one registry serves every core of every machine in the process; the
    per-core :class:`PlanCache` keeps only bound materialisations.
    """

    def __init__(self) -> None:
        self._plans: Dict[tuple, SymbolicPlan] = {}

    def intern(self, skey: tuple) -> Tuple[SymbolicPlan, bool]:
        """(plan, freshly created?) for a structural key."""
        plan = self._plans.get(skey)
        if plan is not None:
            return plan, False
        plan = SymbolicPlan(len(self._plans), skey)
        self._plans[skey] = plan
        return plan, True

    def __len__(self) -> int:
        return len(self._plans)


#: the process-wide symbolic tier (see :class:`SymbolicRegistry`)
SYMBOLIC_REGISTRY = SymbolicRegistry()


@dataclass
class PlanCacheStats:
    """Compile-tier telemetry (hit rate drives the amortization story).

    ``hits``/``misses`` count symbolic-tier resolution per plan lookup:
    a miss means the loop's *structure* had never been seen by the
    process (a genuinely new kernel shape); everything else — any
    problem size, any buffer placement, any rep of a known shape — is
    a hit.  Binding-level materialisation work is what
    ``built_segments``/``built_lines`` track, and ``flushes`` counts
    whole-cache evictions of the bound tier at the line cap.  Concrete
    fallback lookups (gathers, negative strides, segment-fallback
    machines) land in the same counters with their capture-key
    semantics.

    The nest executor bypasses both tiers: ``nest_runs`` counts
    descriptor executions, and ``fallbacks`` the top-level program
    nodes walked instead, by reason (:data:`NEST_FALLBACK_REASONS`).
    """

    hits: int = 0
    misses: int = 0
    built_segments: int = 0
    built_lines: int = 0
    flushes: int = 0
    nest_runs: int = 0
    fallbacks: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(NEST_FALLBACK_REASONS, 0))

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "built_segments": self.built_segments,
            "built_lines": self.built_lines,
            "flushes": self.flushes,
            "nest_runs": self.nest_runs,
            **{f"fallback_{reason}": count
               for reason, count in self.fallbacks.items()},
        }


class PlanCache:
    """Per-core plan store: bound symbolic plans plus concrete captures.

    The bound tier memoises :meth:`SymbolicPlan.bind` materialisations
    under ``(plan_id, trips, site ids, per-site (base, stride, home))``
    keys; the concrete tier keeps capture-keyed plans for loops the
    symbolic form cannot express (entries hold strong references to the
    loop object and any gather tables so the ``id()`` key components
    stay valid).  Both tiers share the line-count memory cap and are
    flushed together.
    """

    def __init__(self, max_lines: int = PLAN_CACHE_MAX_LINES) -> None:
        self.stats = PlanCacheStats()
        self.max_lines = max_lines
        self._entries: Dict[tuple, Tuple[object, tuple, AccessPlan]] = {}
        self._bound: Dict[tuple, AccessPlan] = {}
        self._cached_lines = 0

    # -- symbolic tier -------------------------------------------------
    def resolve_symbolic(self, skey: tuple) -> SymbolicPlan:
        """Intern a loop structure, counting the lookup (see stats)."""
        plan, fresh = SYMBOLIC_REGISTRY.intern(skey)
        if fresh:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return plan

    def note_symbolic_hit(self) -> None:
        """Count a lookup whose structure was already resolved locally."""
        self.stats.hits += 1

    # -- bound tier ----------------------------------------------------
    def get_bound(self, bkey: tuple) -> Optional[AccessPlan]:
        return self._bound.get(bkey)

    def put_bound(self, bkey: tuple, plan: AccessPlan) -> None:
        if self._cached_lines + plan.total_lines > self.max_lines:
            self._flush()
        self._bound[bkey] = plan
        self._cached_lines += plan.total_lines
        self.stats.built_segments += plan.run_count
        self.stats.built_lines += plan.total_lines

    # -- concrete fallback tier ----------------------------------------
    def get(self, key: tuple):
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry[2]

    def put(self, key: tuple, loop, pinned: tuple, plan: AccessPlan) -> None:
        if self._cached_lines + plan.total_lines > self.max_lines:
            self._flush()
        self._entries[key] = (loop, pinned, plan)
        self._cached_lines += plan.total_lines
        self.stats.built_segments += plan.run_count
        self.stats.built_lines += plan.total_lines

    def _flush(self) -> None:
        self._entries.clear()
        self._bound.clear()
        self._cached_lines = 0
        self.stats.flushes += 1

    def __len__(self) -> int:
        return len(self._entries) + len(self._bound)
