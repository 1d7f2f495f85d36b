"""Steady-stream fast-forward: the C kernel skips whole periods exactly.

A flat loop of demand sites at one positive stride, run with every
prefetch engine off, repeats its cache and TLB state shifted by P lines
(the largest of the set counts and the lines per page) once it has
swept the L3 and the TLB.  The kernel then applies the periods left at
once instead of simulating them (``docs/ENGINE.md``, "Steady-stream
fast-forward").  These tests hold it to the reference engine's per-line
walk on a machine small enough that the onset comes within a few
hundred lines: every counter, the per-home DRAM counters, the phase
totals, and the final cache and TLB arrays in recency order.  They
also check that the skip fires where it must and nowhere else.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.engine import ckernel
from repro.isa import ProgramBuilder
from repro.kernels import CodegenCaps, make_kernel
from repro.machine.machine import Machine
from repro.machine.presets import tiny_spec
from repro.memory.numa import Topology
from repro.memory.tlb import TlbConfig
from repro.oracle import diff_engine_sides
from repro.prefetch.control import ALL_DISABLED_MASK, PrefetchControl

pytestmark = pytest.mark.skipif(
    not ckernel.available(), reason="the fast-forward is the C kernel's")

#: tiny's caches (8, 16 and 32 sets; 256 L3 lines) with a 2 + 4 entry
#: TLB of 8-line pages, on two sockets so a buffer can live remote
SPEC = dataclasses.replace(
    tiny_spec(), name="fastforward",
    topology=Topology(sockets=2, cores_per_socket=1),
    hierarchy=dataclasses.replace(
        tiny_spec().hierarchy,
        tlb=TlbConfig(l1_entries=2, l2_entries=4, page_bytes=512)))
LINE = 64
#: the shift: the L3's 32 sets outnumber the 8 lines of a page
P = 32
#: the larger of the L3's 256 lines and the TLB's 6 x 8 lines of reach
ONSET = 256


def trips_per_period(stride: int) -> int:
    return P * LINE // stride


def shortest_skipping(stride: int) -> int:
    """The fewest trips that fast-forward: a copy at the first period
    boundary past the onset, a comparison one period later, and one
    more period to skip."""
    return (ONSET // P + 2) * trips_per_period(stride)


def stream(trips: int, stride: int = LINE, sites: str = "r",
           width: int = 64, nt: bool = False):
    """One flat loop; ``sites`` names each site's buffer access, ``r`` a
    load and ``w`` a store, each site on its own buffer."""
    b = ProgramBuilder()
    value = b.reg()
    with b.loop(trips) as i:
        for k, kind in enumerate(sites):
            buf = b.buffer(f"s{k}", stride * trips + LINE)
            if kind == "r":
                b.load(buf[i * stride], width=width)
            else:
                b.store(value, buf[i * stride], width=width, nt=nt)
    return b.build()


def cache_arrays(cache):
    """(tags, dirty) per set, most recent way first, -1 for empty ways:
    the array backend's layout, rebuilt from the dict backend's
    recency-ordered sets for the reference engine."""
    if cache._backend == "array":
        return cache._tags.copy(), cache._adirty.copy()
    tags = np.full((len(cache._sets), cache._assoc), -1, dtype=np.int64)
    dirty = np.zeros(tags.shape, dtype=bool)
    for s, lines in enumerate(cache._sets):
        recent_first = list(lines.items())[::-1]
        for way, (line, is_dirty) in enumerate(recent_first):
            tags[s, way] = line
            dirty[s, way] = is_dirty
    return tags, dirty


def tlb_arrays(port):
    """Each TLB level's pages as the ArrayTlb keeps them (its dict's
    order reversed, -1 padded), and the last page translated."""
    tlb = port.tlb
    if hasattr(tlb, "l1_pages"):
        levels = (tlb.l1_pages.tolist(), tlb.l2_pages.tolist())
    else:
        levels = tuple(
            list(pages)[::-1] + [-1] * (entries - len(pages))
            for pages, entries in ((tlb._l1, tlb.config.l1_entries),
                                   (tlb._l2, tlb.config.l2_entries)))
    return levels, port._last_page


def run_both(program, mask: int = ALL_DISABLED_MASK, node: int = 0) -> int:
    """Run ``program`` on a fast and a reference machine, hold every
    observable equal, and return the lines the fast engine skipped."""
    fast, ref = Machine(SPEC), Machine(SPEC, engine="reference")
    results = []
    for machine in (fast, ref):
        machine.prefetch_control.write_msr(mask)
        results.append(machine.run(machine.load(program, node=node)).result)
    divergences = diff_engine_sides(fast, results[0], ref, results[1], 0)
    assert not divergences, divergences[:5]
    node = fast.hierarchy.topology.node_of_core(0)
    for level in ("l1", "l2", "l3"):
        index = node if level == "l3" else 0
        got = cache_arrays(getattr(fast.hierarchy, level)[index])
        want = cache_arrays(getattr(ref.hierarchy, level)[index])
        assert np.array_equal(got[0], want[0]), level
        assert np.array_equal(got[1], want[1]), level
    assert tlb_arrays(fast.hierarchy.port(0)) \
        == tlb_arrays(ref.hierarchy.port(0))
    return fast.core(0).plan_stats.skipped_lines


@pytest.mark.parametrize("sites", ["r", "rw", "rrw"])
def test_one_two_and_three_sites(sites):
    trips = 3 * shortest_skipping(LINE)
    assert run_both(stream(trips, sites=sites)) > 0


def test_a_remote_stream_counts_its_home_row():
    # the buffers live on the other socket: remote lines and the
    # remote home's DRAM counters are skipped in step too
    trips = 3 * shortest_skipping(LINE)
    assert run_both(stream(trips, sites="rw"), node=1) > 0


def test_the_ert_load_store_pattern_over_two_sweeps():
    fast = Machine(SPEC)
    program = make_kernel("ert", flops_per_elem=1, sweeps=2).build(
        8192, CodegenCaps.from_machine(fast))
    assert run_both(program) > 0


@pytest.mark.parametrize("stride", [8, 32, 64])
@pytest.mark.parametrize("width", [64, 256])
def test_strides_that_divide_the_period(stride, width):
    # the trips end half a period past a boundary, so a remainder is
    # simulated after the skip; 32-byte windows at strides 8 and 32
    # overlap or straddle lines, so it starts on a line the frontier
    # already passed
    period = trips_per_period(stride)
    trips = shortest_skipping(stride) + 3 * period + period // 2 + 3
    program = stream(trips, stride=stride, sites="rw", width=width)
    assert run_both(program) > 0


def test_a_stream_over_dirty_lines_retries_its_comparison():
    # the first loop leaves the L3 full of `x`'s lines, most of them
    # dirty; the second reads `x` from line 0 and hits them, so they keep
    # their dirty bits while its own lines come in clean.  The state
    # matches its shift only once the old lines are gone, a few
    # comparisons after the first
    n = 4 * shortest_skipping(LINE)
    b = ProgramBuilder()
    x = b.buffer("x", n * LINE)
    value = b.reg()
    with b.loop(ONSET) as i:
        b.store(value, x[i * LINE], width=64)
    with b.loop(n) as i:
        b.load(x[i * LINE], width=64)
    skipped = run_both(b.build())
    # a match at the first comparison would skip every whole period
    # after it
    first_match = ((n - shortest_skipping(LINE)) // trips_per_period(LINE)
                   + 1) * P
    assert 0 < skipped < first_match


@pytest.mark.parametrize("extra,fires", [(-1, False), (0, True)])
def test_streams_just_under_and_just_over_the_onset(extra, fires):
    trips = shortest_skipping(LINE) + extra
    skipped = run_both(stream(trips, sites="rw"))
    assert (skipped > 0) == fires
    if fires:  # one period of both sites
        assert skipped == 2 * P


def test_a_stride_that_does_not_divide_the_period_is_simulated():
    assert run_both(stream(3 * shortest_skipping(8), stride=24)) == 0


def test_a_non_temporal_store_site_is_simulated():
    program = stream(3 * shortest_skipping(LINE), sites="rw", nt=True)
    assert run_both(program) == 0


@pytest.mark.parametrize("engine", ["stream", "nextline", "stride"])
def test_a_stream_with_a_prefetcher_on_is_simulated(engine):
    program = stream(3 * shortest_skipping(LINE), sites="rw")
    control = PrefetchControl()
    control.disable_all()
    control.enable(engine)
    assert run_both(program, mask=control.read_msr()) == 0


def test_the_copy_is_allocated_only_for_an_eligible_loop():
    machine = Machine(SPEC)
    datapath = machine.core(0)._datapath
    machine.prefetch_control.write_msr(ALL_DISABLED_MASK)
    machine.run(machine.load(stream(shortest_skipping(LINE) - 1)))
    assert datapath._ff_words is None
    machine.run(machine.load(stream(shortest_skipping(LINE))))
    assert datapath._ff_words.size > 0
