"""Differential engine: fast path vs reference path, field by field.

Runs the same program through the optimised machine (vectorised
interpreter + batched hierarchy) and through the reference interpreter
over the textbook memory model, then diffs every observable the
measurement methodology depends on:

* cycle count and the per-phase cycle list (the first differing phase
  localises the divergent event),
* core PMU counters (FP events including the reissue overcount, cache
  events, TLB walks),
* the per-batch functional counters (``BatchStats``),
* per-level cache statistics (hits/misses/fills/evictions/...),
* per-node DRAM CAS counters (the uncore Q source, sans synthetic
  noise, which is deliberately bypassed: the noise model is additive
  and orthogonal to interpretation),
* final memory state: resident and dirty line sets of every level and
  the TLB's resident pages.

Cycles are floats accumulated in the same order on both sides, so they
are compared to 1e-9 relative tolerance; every integer counter must
match exactly (the PMU ``cycles`` event tolerates an off-by-one from
``int()`` truncation of near-equal floats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

import numpy as np

from ..isa.assembler import format_program
from ..isa.instructions import Loop
from ..isa.program import Program
from ..machine.presets import tiny_test_machine
from ..obs.spans import SPANS
from .refmem import ReferenceMemory
from .reference import ReferenceInterpreter

#: cache-statistic fields diffed per level
_CACHE_STAT_FIELDS = ("hits", "misses", "fills", "evictions",
                      "dirty_evictions", "invalidations")


@dataclass
class Divergence:
    """One observable on which fast and reference paths disagree."""

    observable: str
    fast: object
    ref: object

    def as_dict(self) -> dict:
        return {"observable": self.observable,
                "fast": repr(self.fast), "ref": repr(self.ref)}

    def __str__(self) -> str:
        return f"{self.observable}: fast={self.fast!r} ref={self.ref!r}"


@dataclass
class DifferentialOutcome:
    """Everything one differential run produced."""

    divergences: List[Divergence]
    fast_cycles: float = 0.0
    ref_cycles: float = 0.0
    minimized: Optional[Program] = None
    #: line accesses the fast machine's C kernel fast-forwarded
    skipped_lines: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def run_differential(program: Program, prefetch_mask: int = 0,
                     core_id: int = 0,
                     machine_factory: Callable = tiny_test_machine,
                     ) -> DifferentialOutcome:
    """Execute ``program`` on both paths and diff every observable."""
    machine = machine_factory()
    machine.prefetch_control.write_msr(prefetch_mask)
    loaded = machine.load(program)
    with SPANS("oracle.fast"):
        run = machine.run(loaded, core_id=core_id)
    res = run.result

    dram_cfg = machine.spec.hierarchy.dram
    # single active core: its DRAM share is the whole node, capped at
    # the per-core ceiling — mirrors Machine.run_parallel
    bpc = min(dram_cfg.per_core_bytes_per_cycle,
              dram_cfg.bytes_per_cycle_total)
    memory = ReferenceMemory(machine.spec, prefetch_mask)
    interp = ReferenceInterpreter(machine.spec, memory, core_id=core_id)
    with SPANS("oracle.reference"):
        ref = interp.execute(program, loaded.buffer_map, bpc)

    divs: List[Divergence] = []

    if not _close(res.cycles, ref.cycles):
        divs.append(Divergence("cycles", res.cycles, ref.cycles))
    if res.instructions != ref.instructions:
        divs.append(Divergence("instructions", res.instructions,
                               ref.instructions))
    if res.true_flops != ref.true_flops:
        divs.append(Divergence("true_flops", res.true_flops, ref.true_flops))

    fast_phases = res.phases.total.tolist()
    if len(fast_phases) != len(ref.phase_totals):
        divs.append(Divergence("phase_count", len(fast_phases),
                               len(ref.phase_totals)))
    else:
        for idx, (a, b) in enumerate(zip(fast_phases, ref.phase_totals)):
            if not _close(a, b):
                # the first divergent phase localises the event
                divs.append(Divergence(f"phase[{idx}].cycles", a, b))
                break

    fast_batch = res.batch.as_dict()
    for key, value in fast_batch.items():
        if key not in ref.batch:
            divs.append(Divergence(f"batch.{key}", value, None))
        elif value != ref.batch[key]:
            divs.append(Divergence(f"batch.{key}", value, ref.batch[key]))

    pmu = machine.core_pmu(core_id).snapshot()
    for key in sorted(set(pmu) | set(ref.counters)):
        fast_value = pmu.get(key, 0)
        ref_value = ref.counters.get(key, 0)
        if key == "cycles":
            if abs(fast_value - ref_value) > 1:
                divs.append(Divergence(f"pmu.{key}", fast_value, ref_value))
        elif fast_value != ref_value:
            divs.append(Divergence(f"pmu.{key}", fast_value, ref_value))

    hier = machine.hierarchy
    node = hier.topology.node_of_core(core_id)
    levels = (
        ("l1", hier.l1[core_id], memory.l1[core_id]),
        ("l2", hier.l2[core_id], memory.l2[core_id]),
        ("l3", hier.l3[node], memory.l3[node]),
    )
    for name, fast_cache, ref_cache in levels:
        for stat in _CACHE_STAT_FIELDS:
            fast_value = getattr(fast_cache.stats, stat)
            ref_value = getattr(ref_cache.stats, stat)
            if fast_value != ref_value:
                divs.append(Divergence(f"{name}.{stat}", fast_value,
                                       ref_value))
        fast_resident = frozenset(fast_cache.resident_lines())
        ref_resident = ref_cache.resident_lines()
        if fast_resident != ref_resident:
            divs.append(Divergence(
                f"{name}.resident",
                sorted(fast_resident ^ ref_resident),
                "symmetric difference (fast^ref) shown under fast",
            ))
        fast_dirty = frozenset(fast_cache.dirty_lines())
        ref_dirty = ref_cache.dirty_lines()
        if fast_dirty != ref_dirty:
            divs.append(Divergence(
                f"{name}.dirty",
                sorted(fast_dirty ^ ref_dirty),
                "symmetric difference (fast^ref) shown under fast",
            ))

    for n, dram in enumerate(hier.dram):
        if dram.counters.cas_reads != memory.dram_reads[n]:
            divs.append(Divergence(f"dram[{n}].cas_reads",
                                   dram.counters.cas_reads,
                                   memory.dram_reads[n]))
        if dram.counters.cas_writes != memory.dram_writes[n]:
            divs.append(Divergence(f"dram[{n}].cas_writes",
                                   dram.counters.cas_writes,
                                   memory.dram_writes[n]))

    fast_tlb = hier.port(core_id).tlb.page_sets()
    ref_tlb = memory.tlbs[core_id].page_sets()
    if fast_tlb != ref_tlb:
        divs.append(Divergence("tlb.resident_pages", fast_tlb, ref_tlb))

    return DifferentialOutcome(
        divergences=divs, fast_cycles=res.cycles, ref_cycles=ref.cycles,
        skipped_lines=machine.core(core_id).plan_stats.skipped_lines)


def run_cross_engine(program: Program, prefetch_mask: int = 0,
                     core_id: int = 0,
                     machine_factory: Callable = tiny_test_machine,
                     ) -> DifferentialOutcome:
    """Execute ``program`` under both *execution engines* and diff.

    Unlike :func:`run_differential` (optimised machine vs the textbook
    reference model), both sides here are full machines — one with the
    batched two-tier engine (``engine="fast"``), one with the per-line
    dispatch path (``engine="reference"``).  The contract is stricter:
    every observable, including floating-point cycle totals, must be
    *bit-identical*, because the fast engine executes the same emission
    stream against the same functional state and the cycle model is a
    pure function of the batch counters.  ``machine_factory`` takes the
    ``engine`` keyword, as every preset does.
    """
    sides = []
    for engine in ("fast", "reference"):
        machine = machine_factory(engine=engine)
        machine.prefetch_control.write_msr(prefetch_mask)
        loaded = machine.load(program)
        with SPANS(f"oracle.{engine}"):
            run = machine.run(loaded, core_id=core_id)
        sides.append((machine, run.result))
    (fast_m, fast_r), (ref_m, ref_r) = sides
    divs = diff_engine_sides(fast_m, fast_r, ref_m, ref_r, core_id)
    return DifferentialOutcome(
        divergences=divs, fast_cycles=fast_r.cycles, ref_cycles=ref_r.cycles,
        skipped_lines=fast_m.core(core_id).plan_stats.skipped_lines)


def run_cross_engine_sequence(programs, prefetch_mask: int = 0,
                              core_id: int = 0,
                              machine_factory: Callable = tiny_test_machine,
                              ) -> DifferentialOutcome:
    """Run a program *sequence* through one warm machine pair and diff.

    Unlike :func:`run_cross_engine`, which builds fresh machines per
    program, both machines persist across the whole sequence: caches
    stay warm, prefetchers stay trained, and — crucially — the fast
    engine's plan cache carries plans compiled under earlier programs
    into later ones.  This is the gate for size-polymorphic plans: a
    plan compiled for the loop at size A must rebind, not silently
    replay, when the same loop structure returns at size B with
    different trip counts and buffer placements.  Observables are
    diffed after every program; the first divergent step is reported
    with its index prefixed to each observable name.
    """
    fast_m = machine_factory(engine="fast")
    ref_m = machine_factory(engine="reference")
    fast_cycles = ref_cycles = 0.0
    for step, program in enumerate(programs):
        results = []
        for machine in (fast_m, ref_m):
            machine.prefetch_control.write_msr(prefetch_mask)
            loaded = machine.load(program)
            run = machine.run(loaded, core_id=core_id)
            results.append(run.result)
        fast_r, ref_r = results
        fast_cycles, ref_cycles = fast_r.cycles, ref_r.cycles
        divs = diff_engine_sides(fast_m, fast_r, ref_m, ref_r, core_id)
        if divs:
            return DifferentialOutcome(
                divergences=[Divergence(f"step[{step}].{d.observable}",
                                        d.fast, d.ref) for d in divs],
                fast_cycles=fast_cycles, ref_cycles=ref_cycles,
            )
    return DifferentialOutcome(divergences=[], fast_cycles=fast_cycles,
                               ref_cycles=ref_cycles)


def diff_engine_sides(fast_m, fast_r, ref_m, ref_r,
                      core_id: int) -> List[Divergence]:
    """Diff every cross-engine observable between two executed machines."""
    divs: List[Divergence] = []
    for name in ("cycles", "instructions", "true_flops"):
        a, b = getattr(fast_r, name), getattr(ref_r, name)
        if a != b:
            divs.append(Divergence(name, a, b))

    if len(fast_r.phases) != len(ref_r.phases):
        divs.append(Divergence("phase_count", len(fast_r.phases),
                               len(ref_r.phases)))
    else:
        fast_t, ref_t = fast_r.phases.total, ref_r.phases.total
        differ = np.flatnonzero(fast_t != ref_t)
        if differ.size:
            idx = int(differ[0])
            divs.append(Divergence(f"phase[{idx}].cycles",
                                   float(fast_t[idx]), float(ref_t[idx])))

    fast_batch = fast_r.batch.as_dict()
    ref_batch = ref_r.batch.as_dict()
    for key, value in fast_batch.items():
        if value != ref_batch.get(key):
            divs.append(Divergence(f"batch.{key}", value,
                                   ref_batch.get(key)))

    fast_pmu = fast_m.core_pmu(core_id).snapshot()
    ref_pmu = ref_m.core_pmu(core_id).snapshot()
    for key in sorted(set(fast_pmu) | set(ref_pmu)):
        a, b = fast_pmu.get(key, 0), ref_pmu.get(key, 0)
        if a != b:
            divs.append(Divergence(f"pmu.{key}", a, b))

    node = fast_m.hierarchy.topology.node_of_core(core_id)
    levels = (
        ("l1", fast_m.hierarchy.l1[core_id], ref_m.hierarchy.l1[core_id]),
        ("l2", fast_m.hierarchy.l2[core_id], ref_m.hierarchy.l2[core_id]),
        ("l3", fast_m.hierarchy.l3[node], ref_m.hierarchy.l3[node]),
    )
    for name, fast_cache, ref_cache in levels:
        for stat in _CACHE_STAT_FIELDS:
            a = getattr(fast_cache.stats, stat)
            b = getattr(ref_cache.stats, stat)
            if a != b:
                divs.append(Divergence(f"{name}.{stat}", a, b))
        if fast_cache.occupancy() != ref_cache.occupancy():
            divs.append(Divergence(f"{name}.occupancy",
                                   fast_cache.occupancy(),
                                   ref_cache.occupancy()))
        fast_resident = frozenset(fast_cache.resident_lines())
        ref_resident = frozenset(ref_cache.resident_lines())
        if fast_resident != ref_resident:
            divs.append(Divergence(
                f"{name}.resident",
                sorted(fast_resident ^ ref_resident),
                "symmetric difference (fast^ref) shown under fast",
            ))
        fast_dirty = frozenset(fast_cache.dirty_lines())
        ref_dirty = frozenset(ref_cache.dirty_lines())
        if fast_dirty != ref_dirty:
            divs.append(Divergence(
                f"{name}.dirty",
                sorted(fast_dirty ^ ref_dirty),
                "symmetric difference (fast^ref) shown under fast",
            ))

    for n, dram in enumerate(fast_m.hierarchy.dram):
        ref_dram = ref_m.hierarchy.dram[n]
        if dram.counters.cas_reads != ref_dram.counters.cas_reads:
            divs.append(Divergence(f"dram[{n}].cas_reads",
                                   dram.counters.cas_reads,
                                   ref_dram.counters.cas_reads))
        if dram.counters.cas_writes != ref_dram.counters.cas_writes:
            divs.append(Divergence(f"dram[{n}].cas_writes",
                                   dram.counters.cas_writes,
                                   ref_dram.counters.cas_writes))

    fast_tlb = fast_m.hierarchy.port(core_id).tlb.page_sets()
    ref_tlb = ref_m.hierarchy.port(core_id).tlb.page_sets()
    if fast_tlb != ref_tlb:
        divs.append(Divergence("tlb.resident_pages", fast_tlb, ref_tlb))

    return divs


# ----------------------------------------------------------------------
# greedy repro minimisation
# ----------------------------------------------------------------------
def minimize_program(program: Program,
                     still_diverges: Callable[[Program], bool],
                     max_attempts: int = 200) -> Program:
    """Greedy structural shrink of a divergent program.

    Repeatedly tries candidate edits — dropping a node, halving or
    decrementing a loop trip count — and keeps any edit under which
    ``still_diverges`` remains true.  Deterministic, so a minimized
    repro in a report is reproducible from the original seed.  (The
    hypothesis-based conformance tests additionally shrink through
    hypothesis's own machinery; this greedy pass is for CLI fuzzing,
    which runs outside hypothesis.)
    """
    attempts = 0
    current = program
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for candidate in _shrink_candidates(current):
            attempts += 1
            try:
                if still_diverges(candidate):
                    current = candidate
                    progress = True
                    break
            except Exception:
                # an edit can produce an unexecutable program; skip it
                pass
            if attempts >= max_attempts:
                break
    return current


def _shrink_candidates(program: Program):
    for body in _edited_bodies(program.body):
        try:
            yield Program(list(body), program.buffers, program.tables)
        except Exception:
            continue


def _edited_bodies(nodes: tuple):
    """Yield copies of a node tuple with exactly one shrinking edit."""
    for i, node in enumerate(nodes):
        yield nodes[:i] + nodes[i + 1:]
        if isinstance(node, Loop):
            if node.trips > 1:
                yield (nodes[:i]
                       + (replace(node, trips=node.trips // 2),)
                       + nodes[i + 1:])
                yield (nodes[:i]
                       + (replace(node, trips=node.trips - 1),)
                       + nodes[i + 1:])
            for sub in _edited_bodies(node.body):
                yield (nodes[:i] + (replace(node, body=sub),)
                       + nodes[i + 1:])


def render_program(program: Program) -> str:
    """Best-effort textual form for divergence reports."""
    try:
        return format_program(program)
    except Exception:
        # gather programs are not textually representable; fall back to
        # a structural dump
        return _dump_nodes(program.body, 0)


def _dump_nodes(nodes, depth: int) -> str:
    pad = "  " * depth
    out = []
    for node in nodes:
        if isinstance(node, Loop):
            out.append(f"{pad}loop {node.loop_id} x{node.trips}:")
            out.append(_dump_nodes(node.body, depth + 1))
        else:
            out.append(f"{pad}{node}")
    return "\n".join(out)
