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
from typing import Mapping, Tuple

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
