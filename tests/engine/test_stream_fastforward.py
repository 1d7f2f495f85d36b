"""Steady-stream fast-forward: the C kernel skips whole periods exactly.

A flat loop of demand sites at one positive stride repeats its cache,
TLB, tracker and prefetched-line state shifted by P lines once it has
swept the L3 and the TLB, with any set of prefetch engines on.  The
kernel then applies the periods left at once instead of simulating them
(``docs/ENGINE.md``, "Steady-stream fast-forward").  These tests hold it
to the reference engine's per-line walk on a machine small enough that
the onset comes within a few hundred lines: every counter, the per-home
DRAM counters, the phase totals, and the final cache and TLB arrays in
recency order, the tracker tables and the prefetched lines.  They also
check that the skip fires where it must and nowhere else.
"""

from __future__ import annotations

import dataclasses
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import ckernel
from repro.isa import ProgramBuilder
from repro.kernels import CodegenCaps, make_kernel
from repro.machine.machine import Machine
from repro.machine.presets import tiny_spec
from repro.measure.protocol import ColdCache
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


#: the prefetch engines, in the order the MSR names them
ENGINES = ("nextline", "stream", "stride")


def shift(engines=()) -> int:
    """P with ``engines`` on: the stream engine turns its 16 trackers of
    64-line pages over each period, next-line keeps to 64-line pages,
    and the stride engine adds no constraint."""
    if "stream" in engines:
        return 16 * 64
    return 64 if "nextline" in engines else P


def trips_per_period(stride: int, period: int = P) -> int:
    return period * LINE // stride


def shortest_skipping(stride: int, period: int = P) -> int:
    """The fewest trips that fast-forward: a copy at the first period
    boundary past the onset, a comparison one period later, and one
    more period to skip."""
    return (-(-ONSET // period) + 2) * trips_per_period(stride, period)


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


def trackers(engine):
    """A tracker table as {key: fields} plus its tick: the array
    backend's valid slots, or the reference engine's dict entries, with
    the stream engine's (last, direction, confidence, front, stamp) and
    the stride engine's (last, stride, confidence, stamp)."""
    if hasattr(engine, "keys"):
        rest = ((engine.last, engine.dirn, engine.conf, engine.front,
                 engine.lruv) if hasattr(engine, "front")
                else (engine.last, engine.strd, engine.conf, engine.lruv))
        table = {int(key): tuple(int(col[i]) for col in rest)
                 for i, key in enumerate(engine.keys) if key != -1}
        return table, int(engine.regs[0])
    table = {}
    for key, t in engine._table.items():
        if hasattr(t, "frontier"):
            table[key] = (t.last_line, t.direction, t.confidence,
                          t.frontier, t.lru_tick)
        else:
            table[key] = (t.last_line, t.stride, t.confidence, t.lru_tick)
    return table, engine._tick


def assert_same_state(fast, ref):
    """Caches and TLB in recency order, tracker tables and the
    prefetched-line set of core 0 are equal on both machines."""
    node = fast.hierarchy.topology.node_of_core(0)
    for level in ("l1", "l2", "l3"):
        index = node if level == "l3" else 0
        got = cache_arrays(getattr(fast.hierarchy, level)[index])
        want = cache_arrays(getattr(ref.hierarchy, level)[index])
        assert np.array_equal(got[0], want[0]), level
        assert np.array_equal(got[1], want[1]), level
    fast_port, ref_port = fast.hierarchy.port(0), ref.hierarchy.port(0)
    assert tlb_arrays(fast_port) == tlb_arrays(ref_port)
    for got, want in zip(fast.hierarchy.prefetchers_of(0),
                         ref.hierarchy.prefetchers_of(0)):
        assert got.kind == want.kind
        if got.kind != "nextline":
            assert trackers(got) == trackers(want), got.kind
    assert set(fast_port._prefetched) == set(ref_port._prefetched)


def run_both(*programs, mask: int = ALL_DISABLED_MASK, node: int = 0,
             spec=SPEC) -> int:
    """Run ``programs`` in turn on a fast and a reference machine, hold
    every observable of the last run and the final state equal, and
    return the lines the fast engine skipped."""
    fast, ref = Machine(spec), Machine(spec, engine="reference")
    results = []
    for machine in (fast, ref):
        machine.prefetch_control.write_msr(mask)
        for program in programs:
            result = machine.run(machine.load(program, node=node)).result
        results.append(result)
    divergences = diff_engine_sides(fast, results[0], ref, results[1], 0)
    assert not divergences, divergences[:5]
    assert_same_state(fast, ref)
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


def msr(*engines: str) -> int:
    """The prefetch MSR value with only ``engines`` on."""
    control = PrefetchControl()
    control.disable_all()
    for engine in engines:
        control.enable(engine)
    return control.read_msr()


@pytest.mark.parametrize("engines", [(engine,) for engine in ENGINES]
                         + [ENGINES])
def test_a_stream_with_prefetchers_on_skips_exactly(engines):
    period = shift(engines)
    trips = shortest_skipping(LINE, period) + 2 * period
    assert run_both(stream(trips, sites="rw"), mask=msr(*engines)) > 0


def test_a_daxpy_stream_skips_with_every_engine_on():
    fast = Machine(SPEC)
    program = make_kernel("daxpy").build(
        8 * 4 * shift(ENGINES), CodegenCaps.from_machine(fast))
    assert run_both(program, mask=msr(*ENGINES)) > 0


def test_the_cold_protocols_buster_skips_exactly():
    # a 256 KiB L3 makes the buster (twice every cache's lines, 8,352)
    # long enough to skip with every engine on; the protocol resets the
    # trackers after it, and the prefetched lines stay
    spec = dataclasses.replace(SPEC, hierarchy=dataclasses.replace(
        SPEC.hierarchy, l3=dataclasses.replace(SPEC.hierarchy.l3,
                                               size_bytes=256 * 1024)))
    fast, ref = Machine(spec), Machine(spec, engine="reference")
    for machine in (fast, ref):
        machine.prefetch_control.write_msr(msr(*ENGINES))
        ColdCache().prepare(machine, lambda: None)
    assert fast.hierarchy.port(0).totals == ref.hierarchy.port(0).totals
    assert_same_state(fast, ref)
    assert fast.core(0).plan_stats.skipped_lines > 0


#: strides in bytes: the first five divide every period, 24 and 96 none
STRIDES = [8, 16, 32, 64, 128, 24, 96]


@st.composite
def long_streams(draw):
    """A stream loop of one to three sites, long enough to reach the
    fast-forward's onset, behind optional loops that leave dirty lines
    and prefetched lines the stream meets later."""
    engines = draw(st.sampled_from(
        [combo for k in (1, 2, 3) for combo in combinations(ENGINES, k)]))
    stride = draw(st.sampled_from(STRIDES))
    sites = draw(st.text("rw", min_size=1, max_size=3))
    width = draw(st.sampled_from([64, 256, 512]))
    offset = draw(st.integers(0, LINE - 1))
    period = shift(engines)
    lines = draw(st.integers(shortest_skipping(LINE, period) - period // 2,
                             shortest_skipping(LINE, period) + 2 * period))
    trips = max(1, lines * LINE // stride)
    span = trips * stride + 2 * LINE
    dirty = draw(st.integers(0, min(2 * ONSET, span // LINE - 1)))
    stale = draw(st.lists(st.integers(0, span - LINE), max_size=6))
    b = ProgramBuilder()
    value = b.reg()
    bufs = [b.buffer(f"s{k}", span) for k in range(len(sites))]
    with b.loop(dirty) as i:
        b.store(value, bufs[0][i * LINE], width=64)
    for pos in stale:
        b.prefetch(bufs[-1][pos])
    with b.loop(trips) as i:
        for buf, kind in zip(bufs, sites):
            if kind == "r":
                b.load(buf[i * stride + offset], width=width)
            else:
                b.store(value, buf[i * stride + offset], width=width)
    return b.build(), msr(*engines), draw(st.sampled_from([0, 1]))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(long_streams())
def test_long_streams_match_the_reference_engine(case):
    # counter for counter, and the final caches, TLB, trackers and
    # prefetched lines; whether the loop skipped is not asserted, only
    # that whatever it skipped changed nothing
    program, mask, node = case
    run_both(program, mask=mask, node=node)


def test_the_copy_is_allocated_only_for_an_eligible_loop():
    machine = Machine(SPEC)
    datapath = machine.core(0)._datapath
    machine.prefetch_control.write_msr(ALL_DISABLED_MASK)
    machine.run(machine.load(stream(shortest_skipping(LINE) - 1)))
    assert datapath._ff_words is None
    machine.run(machine.load(stream(shortest_skipping(LINE))))
    assert datapath._ff_words.size > 0
