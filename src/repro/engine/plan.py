"""Compile tier: walked flat loops lowered to access plans.

An :class:`AccessPlan` is the fully evaluated memory side of one flat
(innermost) loop execution, in the one form the C kernel reads: a
packed run table over the exact cache-line touch stream every site
emits, in canonical emission order.  Only the compiled datapath
(:mod:`repro.engine.datapath`) executes plans; without the kernel the
fast engine walks flat loops through the port's per-line calls exactly
as the reference engine does, and builds no plan.

On the compiled datapath the nest executor (:mod:`repro.cpu.nest`)
runs every registry kernel, gathers included, without a plan.  Plans
serve what it refuses and the core walks: a loop inside a top-level
node the nest cannot lower, and straight-line accesses there
(:meth:`AccessPlan.one_run`).

An affine walked loop's plan is computed in numpy
(:meth:`AccessPlan.from_affine_sites`) and cached in two tiers (see
:class:`PlanCache`):

* the **symbolic tier** is a process-global registry keyed on *loop
  structure alone* — the loop id plus, per site, the access kind,
  width, buffer name, and referenced induction variables.  Nothing
  size-dependent (trip counts, strides, bases) enters the key, so the
  dgemm kernel at n=64 and n=160 resolves to the *same*
  :class:`SymbolicPlan`, whose runs are materialised only at binding
  time.
* the **bound tier** is per core: a symbolic plan plus one concrete
  binding — ``(trips, site ids, per-site (base, stride, home))`` —
  memoises the materialised :class:`AccessPlan`, so re-executions of
  the same (program, buffer_map) pair replay without re-lowering
  anything.

Loops the symbolic form cannot express — gathers and negative own-loop
strides — are packed uncached from the interpreter's own emission
generator (:meth:`AccessPlan.from_emissions`), so by construction the
plan holds the same lines, in the same order, that the per-line
reference engine dispatches (see ``docs/ENGINE.md``).

``PlanCacheStats.hits``/``misses`` count symbolic-tier resolution: a
lookup misses only the first time a loop *structure* is seen in the
process, which is what makes the hit rate size-polymorphic.
Materialisation work is tracked separately by ``built_segments``
(runs) and ``built_lines``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .ckernel import OP, RM, RM_FIELDS, row

#: flush the whole per-core bound tier once it holds this many line
#: entries (a coarse memory bound; sweeps over many distinct programs
#: on one long-lived machine otherwise grow without limit)
PLAN_CACHE_MAX_LINES = 8_000_000

#: why a top-level program node was walked in Python instead of running
#: through the nest executor (``Core._run_body``; docs/ENGINE.md)
NEST_FALLBACK_REASONS = (
    "negative_multisite_stride",  # the walk raises ExecutionError for it
    "no_ckernel",                 # the C kernel is unavailable
    "reference_engine",           # engine="reference" always walks
    "replacement_policy",         # a non-LRU cache level: no array state
    "unsupported",                # out-of-scope iv, unknown node, cost error
)

#: run opcode (the ``op`` meta column) of each emission kind
_KIND_TO_OP = {
    "load": OP["demand_read"],
    "gather": OP["demand_read"],
    "store": OP["demand_write"],
    "ntstore": OP["ntstore"],
    "prefetch": OP["prefetch"],
    "flush": OP["flush"],
}

_RM_N, _RM_SID = RM["n"], RM["sid"]


class AccessPlan:
    """The lowered memory traffic of one flat-loop execution context,
    as the packed run table ``repro_execute_plan`` reads.

    Layout shared with ``engine/_ckernel.c``:

    * ``meta`` — one int64 row per run, its columns the ``RM`` layout
      of ``engine/ckernel.py``: ``op``, the resolved home, the remote
      flag, the line offset, the line count ``n`` and ``sid``.  A run is
      a maximal stretch of the emission stream with one opcode and one
      home node resolved against the owning core's node.  ``sid >= 0`` is the
      uniform stream id of the whole run and ``-1`` means the run mixes
      sites.
    * ``lines`` — all runs' line numbers, flat, in emission order,
      indexed by the offset and ``n`` columns.
    * ``sids`` — per-line stream ids aligned with ``lines``.  Only
      demand traffic trains the stride prefetcher, so the kernel reads
      them only for demand runs with ``sid == -1``.

    Interleaved multi-site bodies emit ~1-line bursts (a dgemm plan
    averages about one line per site burst), so fusing bursts into runs
    keeps per-run overhead from becoming per-line overhead.  The kernel
    performs the per-line page check itself, so the table is
    position-independent.
    """

    __slots__ = ("meta", "lines", "sids", "ptrs")

    def __init__(self, meta: np.ndarray, lines: np.ndarray,
                 sids: np.ndarray) -> None:
        self.meta = meta
        self.lines = lines
        self.sids = sids
        #: (meta, lines, sids) raw data pointers, taken once
        #: (``ndarray.ctypes`` allocates a wrapper per access; cached
        #: plans replay thousands of times)
        self.ptrs = (meta.ctypes.data, lines.ctypes.data, sids.ctypes.data)

    @property
    def nruns(self) -> int:
        return self.meta.shape[0]

    @property
    def total_lines(self) -> int:
        return self.lines.shape[0]

    @classmethod
    def from_emissions(cls, emissions: Iterable,
                       own_node: int) -> "AccessPlan":
        """Pack a captured ``(site, lines, node)`` emission stream.

        Consecutive emissions with the same opcode and resolved home
        fuse into one run; per-line order is emission order, so the
        line stream the kernel replays is exactly the one the reference
        engine dispatches.
        """
        rows: List[list] = []
        lines: List[int] = []
        sids: List[int] = []
        key = run = None
        for site, site_lines, node in emissions:
            op = _KIND_TO_OP[site.kind]
            rhome = own_node if node is None else node
            sid = site.site_id
            n = len(site_lines)
            if (op, rhome) != key:
                key = (op, rhome)
                run = row(RM, op=op, home=rhome, remote=int(rhome != own_node),
                          off=len(lines), n=n, sid=sid)
                rows.append(run)
            else:
                run[_RM_N] += n
                if run[_RM_SID] != sid:
                    run[_RM_SID] = -1
            lines.extend(site_lines)
            sids.extend(repeat(sid, n))
        return cls(np.array(rows, dtype=np.int64).reshape(-1, RM_FIELDS),
                   np.array(lines, dtype=np.int64),
                   np.array(sids, dtype=np.int64))

    @classmethod
    def one_run(cls, kind: str, lines: List[int], home: int,
                own_node: int) -> "AccessPlan":
        """One straight-line instruction's lines as a single run, under
        the port calls' default stream id 0 (``Core._access``)."""
        n = len(lines)
        meta = np.array([row(RM, op=_KIND_TO_OP[kind], home=home,
                             remote=int(home != own_node), n=n)],
                        dtype=np.int64)
        return cls(meta, np.array(lines, dtype=np.int64),
                   np.zeros(n, dtype=np.int64))

    @classmethod
    def from_affine_sites(cls, sites, trips: int, line_shift: int,
                          own_node: int) -> "AccessPlan":
        """Vectorized lowering of an affine flat loop (1..n sites).

        ``sites`` is a list of ``(kind, site_id, base, stride,
        width_bytes, node)`` records in body order with non-negative
        strides.  Produces exactly the table :meth:`from_emissions`
        packs from the interpreter's emission walk — per-site
        monotone-frontier crossings, the iteration-order merge, and the
        range expansion are computed in numpy instead of per-burst
        Python (the walker averages ~1 line per burst on interleaved
        bodies, so per-burst work dominates compile time otherwise),
        with no ``.tolist()`` round trip.
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
        meta = np.empty((b0s.size, RM_FIELDS), dtype=np.int64)
        meta[:, RM["op"]] = op_b[b0s]
        meta[:, RM["home"]] = rh_b[b0s]
        meta[:, RM["remote"]] = rh_b[b0s] != own_node
        meta[:, RM["off"]] = offs
        meta[:, RM["n"]] = line_cum[bounds[1:]] - offs
        smin = np.minimum.reduceat(sid_flat, offs)
        smax = np.maximum.reduceat(sid_flat, offs)
        meta[:, RM["sid"]] = np.where(smin == smax, smin, -1)
        return cls(meta, lines_flat, sid_flat)


class SymbolicPlan:
    """One interned loop structure: the size-polymorphic plan.

    A symbolic plan is the compile artifact keyed on loop/kernel
    identity alone.  Its runs exist only as *symbols* — per-site
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


#: the fast-forward's nest-state counters, as PlanCacheStats fields
FF_COUNTERS = ("ff_copies", "ff_mismatches", "ff_skips_empty",
               "ff_skips_clean", "ff_skips_dirty")


@dataclass
class PlanCacheStats:
    """Compile-tier telemetry (hit rate drives the amortization story).

    ``hits``/``misses`` count symbolic-tier resolution per plan lookup:
    a miss means the loop's *structure* had never been seen by the
    process (a genuinely new kernel shape); everything else — any
    problem size, any buffer placement, any rep of a known shape — is
    a hit.  Binding-level materialisation work is what
    ``built_segments`` (the built plans' runs, :attr:`AccessPlan.nruns`)
    and ``built_lines`` track, and ``flushes`` counts whole-cache
    evictions of the bound tier at the line cap.  Uncached plans
    (gathers, negative strides) count nowhere.

    The nest executor bypasses both tiers: ``nest_runs`` counts
    descriptor executions, ``skipped_lines`` the demand lines the kernel
    fast-forwarded over instead of simulating (steady streams, see
    ``docs/ENGINE.md``), ``ff_copies`` and ``ff_mismatches`` the
    fast-forward's state copies and failed comparisons,
    ``ff_skips_empty``/``_clean``/``_dirty`` its skips whose periods
    filled an empty L3 way or evicted a clean or dirty line (a skip may
    count under several), and ``fallbacks`` the top-level
    program nodes walked instead, by reason
    (:data:`NEST_FALLBACK_REASONS`).
    """

    hits: int = 0
    misses: int = 0
    built_segments: int = 0
    built_lines: int = 0
    flushes: int = 0
    nest_runs: int = 0
    skipped_lines: int = 0
    ff_copies: int = 0
    ff_mismatches: int = 0
    ff_skips_empty: int = 0
    ff_skips_clean: int = 0
    ff_skips_dirty: int = 0
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
            "skipped_lines": self.skipped_lines,
            **{name: getattr(self, name) for name in FF_COUNTERS},
            **{f"fallback_{reason}": count
               for reason, count in self.fallbacks.items()},
        }


class PlanCache:
    """Per-core plan store: the bound tier.

    It memoises :meth:`SymbolicPlan.bind` materialisations under
    ``(plan_id, trips, site ids, per-site (base, stride, home))`` keys,
    flushed whole once their lines pass ``max_lines``.
    """

    def __init__(self, max_lines: int = PLAN_CACHE_MAX_LINES) -> None:
        self.stats = PlanCacheStats()
        self.max_lines = max_lines
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
            self._bound.clear()
            self._cached_lines = 0
            self.stats.flushes += 1
        self._bound[bkey] = plan
        self._cached_lines += plan.total_lines
        self.stats.built_segments += plan.nruns
        self.stats.built_lines += plan.total_lines

    def __len__(self) -> int:
        return len(self._bound)
