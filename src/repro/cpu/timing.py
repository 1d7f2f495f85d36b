"""Cycle-cost model: turns exact functional event counts into runtime.

The model is the throughput/latency approximation documented in
DESIGN.md: a phase (one innermost-loop execution or straight-line block)
costs the *maximum* of its issue bound, its carried-dependency bound,
and each memory level's bandwidth bound — all of which overlap on an
out-of-order core — plus an exposed-latency term divided by the memory
level parallelism.  The max form is what makes measured kernels land on
``min(pi, I*beta)`` the way the paper's plots do, while cold caches,
prefetchers and NUMA shift the points mechanically.

The same event counts also drive the Sandy Bridge FP-counter
*overcount* artifact (:func:`reissue_slots`): FP µops waiting on cache
misses are re-dispatched every ``reissue_interval_cycles`` and each
re-dispatch bumps the FP event again, so cold-cache work measurements
inflate exactly as the paper's validation section reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

import numpy as np

from ..memory.hierarchy import BatchStats, HierarchyConfig
from .port_model import PortModel


@dataclass(frozen=True)
class TimingParams:
    """Tunable microarchitectural constants of the cost model."""

    mlp: float = 8.0                    # outstanding-miss parallelism
    reissue_interval_cycles: int = 16   # FP µop re-dispatch period
    reissue_hide_cycles: int = 6        # latency hidden before replays start
                                        # (covers L1 hits: the scheduler
                                        # speculates L1-hit latency and
                                        # replays dependants on any L1 miss)
    max_reissue_per_miss: int = 4       # scheduler window bound


#: names of the throughput bounds, in :attr:`PhaseCost.dominant`'s
#: tie-breaking order (the first maximum wins)
THROUGHPUT_BOUNDS = ("fp_issue", "mem_issue", "dependency_chain",
                     "l2_bandwidth", "l3_bandwidth", "dram_bandwidth")


@dataclass(frozen=True)
class PhaseCost:
    """Cycle cost of one phase, with its contributing bounds."""

    fp_issue: float
    mem_issue: float
    chain: float
    l2_bandwidth: float
    l3_bandwidth: float
    dram_bandwidth: float
    exposed_latency: float

    @property
    def throughput_bound(self) -> float:
        return max(
            self.fp_issue,
            self.mem_issue,
            self.chain,
            self.l2_bandwidth,
            self.l3_bandwidth,
            self.dram_bandwidth,
        )

    @property
    def total(self) -> float:
        return self.throughput_bound + self.exposed_latency

    @property
    def dominant(self) -> str:
        """Name of the binding constraint (diagnostics/reports)."""
        bounds = dict(zip(THROUGHPUT_BOUNDS, (
            self.fp_issue, self.mem_issue, self.chain, self.l2_bandwidth,
            self.l3_bandwidth, self.dram_bandwidth,
        )))
        return max(bounds, key=bounds.get)

    def as_dict(self) -> dict:
        """Flat cycle breakdown (trace events, JSON reports)."""
        return {
            "fp_issue": self.fp_issue,
            "mem_issue": self.mem_issue,
            "dependency_chain": self.chain,
            "l2_bandwidth": self.l2_bandwidth,
            "l3_bandwidth": self.l3_bandwidth,
            "dram_bandwidth": self.dram_bandwidth,
            "exposed_latency": self.exposed_latency,
        }


#: the phase table's columns: :meth:`PhaseCost.as_dict` keys, in order
PHASE_COLUMNS = THROUGHPUT_BOUNDS + ("exposed_latency",)


class PhaseTable:
    """Phase costs of one execution as seven float64 columns.

    The columns are :data:`PHASE_COLUMNS`, one per :class:`PhaseCost`
    field.  The nest executor appends one block per C-kernel call
    (:meth:`add_block`) and the walk one row per :func:`phase_cycles`
    result (:meth:`append`); blocks and rows are joined into one
    ``(7, n)`` array only when a reader asks for :attr:`columns`.
    Indexing and iteration build a :class:`PhaseCost` of Python floats
    on demand; :attr:`total` is ``PhaseCost.total`` for every phase,
    bit for bit (the same maximum plus the same exposed latency).
    """

    __slots__ = ("_parts", "_rows", "_len", "_total")

    def __init__(self) -> None:
        #: ``(7, k)`` float64 blocks in program order
        self._parts: List[np.ndarray] = []
        #: walk rows appended since the last block, as PhaseCost objects
        self._rows: List[PhaseCost] = []
        self._len = 0
        self._total: Optional[np.ndarray] = None

    def append(self, cost: PhaseCost) -> None:
        """Add one phase (a :func:`phase_cycles` result)."""
        self._rows.append(cost)
        self._len += 1
        self._total = None

    def add_block(self, block: np.ndarray) -> None:
        """Add a ``(7, k)`` float64 block of phases, columns in
        :data:`PHASE_COLUMNS` order."""
        self._flush_rows()
        self._parts.append(block)
        self._len += block.shape[1]
        self._total = None

    def extend(self, other: "PhaseTable") -> None:
        """Append every phase of ``other``, in order."""
        self.add_block(other.columns)

    def _flush_rows(self) -> None:
        if self._rows:
            self._parts.append(np.array(
                [(c.fp_issue, c.mem_issue, c.chain, c.l2_bandwidth,
                  c.l3_bandwidth, c.dram_bandwidth, c.exposed_latency)
                 for c in self._rows], dtype=np.float64).T)
            self._rows = []

    @property
    def columns(self) -> np.ndarray:
        """Every phase as one ``(7, n)`` float64 array."""
        self._flush_rows()
        parts = self._parts
        if len(parts) != 1:
            joined = (np.concatenate(parts, axis=1) if parts
                      else np.empty((len(PHASE_COLUMNS), 0)))
            self._parts = parts = [joined]
        return parts[0]

    def column(self, name: str) -> np.ndarray:
        """One cost column by its :data:`PHASE_COLUMNS` name."""
        return self.columns[PHASE_COLUMNS.index(name)]

    @property
    def total(self) -> np.ndarray:
        """Cycles of every phase: the largest throughput bound plus the
        exposed latency, as :attr:`PhaseCost.total` computes it."""
        if self._total is None:
            cols = self.columns
            self._total = np.maximum.reduce(cols[:-1]) + cols[-1]
        return self._total

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: int) -> PhaseCost:
        return PhaseCost(*self.columns[:, index].tolist())

    def __iter__(self):
        return (PhaseCost(*row) for row in self.columns.T.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseTable):
            return NotImplemented
        return (len(self) == len(other)
                and bool(np.array_equal(self.columns, other.columns)))

    __hash__ = None


def phase_cycles(ports: PortModel,
                 config: HierarchyConfig,
                 fp_ops: Mapping[Tuple[str, int], float],
                 load_widths: Mapping[int, float],
                 store_widths: Mapping[int, float],
                 chain_cycles: float,
                 batch: BatchStats,
                 params: TimingParams,
                 dram_bytes_per_cycle: float,
                 remote_extra_latency: int = 0) -> PhaseCost:
    """Cost of one phase.

    ``fp_ops`` / ``load_widths`` / ``store_widths`` are dynamic counts for
    the whole phase; ``chain_cycles`` is the carried-dependency bound
    (max per-iteration chain latency times trip count); ``batch`` holds
    the functional memory events; ``dram_bytes_per_cycle`` is the
    share of DRAM bandwidth available to this core during the phase.
    """
    fp_issue = ports.fp_issue_cycles(fp_ops) if fp_ops else 0.0
    mem_issue = ports.mem_issue_cycles(load_widths, store_widths)
    return PhaseCost(
        fp_issue, mem_issue, chain_cycles,
        *memory_bounds(config, batch, params, dram_bytes_per_cycle,
                       remote_extra_latency),
    )


def _share(part, whole):
    """``part / whole`` where both are nonzero, else 0.0 (elementwise
    for arrays)."""
    if isinstance(whole, np.ndarray):
        return np.divide(part, whole, out=np.zeros(whole.shape),
                         where=(whole != 0) & (part != 0))
    return part / whole if whole and part else 0.0


def memory_bounds(config: HierarchyConfig, batch: BatchStats,
                  params: TimingParams, dram_bytes_per_cycle: float,
                  remote_extra_latency: int = 0):
    """``(l2, l3, dram bandwidth, exposed latency)`` cycles of a phase.

    The memory half of :func:`phase_cycles`.  Every operation is
    elementwise, so ``batch`` may hold plain counts (one phase) or
    equal-length int64 arrays (one entry per phase, as the nest
    executor costs them); either way each phase sees the same IEEE
    operations in the same order, so array costs are bit-identical to
    scalar ones.
    """
    line = config.line_bytes
    l2_bw = batch.l2_hits * line / config.l2.bytes_per_cycle
    l3_bw = batch.l3_hits * line / config.l3.bytes_per_cycle

    local_lines = batch.dram_lines_total - batch.remote_dram_lines
    remote_factor = config.numa.remote_bandwidth_factor
    effective_lines = local_lines + batch.remote_dram_lines / remote_factor
    dram_bw = effective_lines * line / dram_bytes_per_cycle

    remote_share = _share(batch.remote_dram_lines, batch.dram_reads)
    dram_latency = (
        config.dram.latency_cycles
        + remote_share * (config.numa.remote_latency_extra_cycles + remote_extra_latency)
    )
    exposed = (
        batch.l2_hits * config.l2.latency_cycles
        + batch.l3_hits * config.l3.latency_cycles
        + batch.dram_reads * dram_latency
        + batch.tlb_walk_cycles
    ) / params.mlp
    return l2_bw, l3_bw, dram_bw, exposed


def reissue_slots(config: HierarchyConfig, batch: BatchStats,
                  params: TimingParams):
    """Number of FP re-dispatch opportunities a phase's misses create.

    Each slot re-counts the loop body's load-dependent FP instructions
    once in the core PMU — the mechanical source of the overcount the
    paper quantifies.  Elementwise like :func:`memory_bounds`: per-phase
    count arrays give per-phase slot arrays.
    """

    def per_line(latency: int) -> int:
        exposed = max(latency - params.reissue_hide_cycles, 0)
        if exposed == 0:
            return 0
        return min(
            params.max_reissue_per_miss,
            math.ceil(exposed / params.reissue_interval_cycles),
        )

    return (
        batch.l2_hits * per_line(config.l2.latency_cycles)
        + batch.l3_hits * per_line(config.l3.latency_cycles)
        + batch.dram_reads * per_line(config.dram.latency_cycles)
    )
