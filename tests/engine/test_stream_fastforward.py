"""Steady-stream fast-forward: the C kernel skips whole periods exactly.

A flat loop of demand sites at one positive stride repeats its cache,
TLB, tracker and prefetched-line state shifted by P lines once its
sites together have swept the L1, the L2 and the first TLB level, with
any set of prefetch engines on, while older lines sink through the L3
and the second TLB level.  The kernel then applies the periods left at
once instead of simulating them (``docs/ENGINE.md``, "Steady-stream
fast-forward").  These tests hold it to the reference engine's per-line
walk on machines small enough that the onset comes within a few hundred
lines: every counter, the per-home DRAM counters, the phase totals, and
the final cache and TLB arrays in recency order, the tracker tables and
the prefetched lines.  They also check that the skip fires where it
must and nowhere else.
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
#: SPEC with a 64 KiB, 16-way L3 (64 sets) and a second TLB level of 64
#: entries: older lines outlive 16 periods of one stream in an L3 set,
#: and a stream fills the second TLB level over 16 periods
BIG = dataclasses.replace(
    SPEC, name="fastforward-big",
    hierarchy=dataclasses.replace(
        SPEC.hierarchy,
        l3=dataclasses.replace(SPEC.hierarchy.l3, size_bytes=64 * 1024,
                               assoc=16),
        tlb=TlbConfig(l1_entries=2, l2_entries=64, page_bytes=512)))
#: BIG's shift with the prefetchers off: its L3's 64 sets
BIG_P = 64
SPECS = (SPEC, BIG)
#: the shift: the L3's 32 sets outnumber the 8 lines of a page
P = 32
#: the larger of the L1's and L2's 16 + 64 lines and the first TLB
#: level's 2 x 8 lines of reach
ONSET = 80
#: the L2's lines, which the sites must have swept a period before the
#: copy, so the copy's oldest loop lines have left it
L2_LINES = 64


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


def shortest_skipping(stride: int, period: int = P, streams: int = 1) -> int:
    """The fewest trips that fast-forward: a copy at the first period
    boundary at which the loop's ``streams`` disjoint streams together
    have swept the onset, and a period before it the L2, a comparison
    one period later, and one more period to skip."""
    swept = streams * period
    boundary = max(-(-ONSET // swept), 1 + -(-L2_LINES // swept))
    return (boundary + 2) * trips_per_period(stride, period)


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


#: what the L3 holds before a loop: nothing, or older clean or dirty
#: lines (:func:`prefill`)
FILLS = ("none", "clean", "dirty")


def prefill(kind: str, lines: int):
    """A read sweep of ``lines`` lines of a buffer of its own ("clean"),
    or the same with every other line written ("dirty"): it leaves older
    lines in the L3 that the next loop's skipped periods evict."""
    b = ProgramBuilder()
    value = b.reg()
    old = b.buffer("old", lines * LINE)
    with b.loop(lines // 2) as i:
        b.load(old[i * (2 * LINE)], width=64)
        if kind == "dirty":
            b.store(value, old[i * (2 * LINE) + LINE], width=64)
        else:
            b.load(old[i * (2 * LINE) + LINE], width=64)
    return b.build()


def run_machines(*programs, mask: int = ALL_DISABLED_MASK, node: int = 0,
                 spec=SPEC, fill: str = "none"):
    """Run ``programs`` in turn on a fast and a reference machine, after
    a ``fill`` ("clean" or "dirty") of the L3 with older lines, hold
    every observable of the last run and the final state equal, and
    return the fast machine's plan counters."""
    if fill != "none":
        programs = (prefill(fill, spec.hierarchy.l3.size_bytes // LINE),
                    *programs)
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
    return fast.core(0).plan_stats


def run_both(*programs, **kwargs) -> int:
    """:func:`run_machines`, returning the lines the fast engine
    skipped."""
    return run_machines(*programs, **kwargs).skipped_lines


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


@pytest.mark.parametrize("sites", ["r", "rw", "rrw"])
@pytest.mark.parametrize("extra,fires", [(-1, False), (0, True)])
def test_streams_just_under_and_just_over_the_onset(sites, extra, fires):
    # each site's buffer lies past the lines the others sweep, so k
    # streams cover k times one stream's lines and reach the onset (80
    # lines: the L1's and L2's) after a k-th of its periods, rounded up,
    # but no earlier than a period after sweeping the L2's 64 lines
    streams = len(sites)
    trips = shortest_skipping(LINE, streams=streams) + extra
    skipped = run_both(stream(trips, sites=sites))
    assert (skipped > 0) == fires
    if fires:  # one period of every site
        assert skipped == streams * P


def stencil(trips: int):
    """A 3-point stencil: three loads of one buffer 8 bytes apart, at a
    stride of 8 bytes, so the sites' lines overlap."""
    b = ProgramBuilder()
    x = b.buffer("x", 8 * trips + 2 * LINE)
    with b.loop(trips) as i:
        for offset in (0, 8, 16):
            b.load(x[i * 8 + offset], width=64)
    return b.build()


@pytest.mark.parametrize("extra,fires", [(-1, False), (0, True)])
def test_a_stencil_keeps_the_one_stream_onset(extra, fires):
    # the sites cover one stream's lines plus at most the two between
    # their first lines, so the copy waits as long as for one stream
    skipped = run_both(stencil(shortest_skipping(8) + extra))
    assert (skipped > 0) == fires
    if fires:  # one period of each of the three sites
        assert skipped == 3 * P


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


@pytest.mark.parametrize("fill", FILLS)
def test_a_skip_evicts_each_kind_of_older_way_exactly(fill):
    # on BIG an older L3 line sinks one way a period and outlives 16 of
    # them, so the skipped periods fill the empty ways, or evict the
    # older clean lines, or the dirty ones with their writebacks and
    # home writes, as the L3 held before the loop
    stats = run_machines(stream(40 * BIG_P, sites="r"), spec=BIG, fill=fill)
    assert stats.skipped_lines > 0
    kinds = {"none": stats.ff_skips_empty, "clean": stats.ff_skips_clean,
             "dirty": stats.ff_skips_dirty}
    assert kinds[fill] > 0


def test_an_older_line_ahead_caps_the_skip():
    # the prefix leaves eight lines of the loop's own buffer, ten
    # periods ahead, in the L3; the loop reaches them before they sink
    # out, so its skip stops short of them and it copies again past them
    n = 40 * BIG_P
    b = ProgramBuilder()
    x = b.buffer("x", n * LINE)
    with b.loop(8) as i:
        b.load(x[i * LINE + 10 * BIG_P * LINE], width=64)
    with b.loop(n) as i:
        b.load(x[i * LINE], width=64)
    stats = run_machines(b.build(), spec=BIG)
    uncapped = run_both(stream(n), spec=BIG)
    assert 0 < stats.skipped_lines < uncapped
    assert stats.ff_copies >= 2


def test_the_second_tlb_level_fills_up_during_a_skip():
    # BIG's 64 second-level entries hold 512 lines: the copy comes with
    # about 14 of them used, and the skipped periods fill the rest
    fast_stats = run_machines(stream(40 * BIG_P), spec=BIG)
    assert fast_stats.skipped_lines > 0
    machine = Machine(BIG)
    machine.prefetch_control.write_msr(ALL_DISABLED_MASK)
    machine.run(machine.load(stream(40 * BIG_P)))
    assert machine.hierarchy.port(0).tlb.regs[1] == 64


def after_older_lines(touches, trips: int, sites, stride: int = LINE,
                      buffers: int = 1):
    """A flat loop of ``sites``, each (buffer, byte offset, "r" or "w"),
    at ``stride`` bytes for ``trips`` trips, behind loops that each touch
    (buffer, first line, lines, step in lines, "r" or "w") of the same
    buffers: they leave older lines, some dirty, in the caches, the TLB
    and the prefetched set where the loop meets them."""
    b = ProgramBuilder()
    value = b.reg()
    span = trips * stride + 1024 * LINE
    bufs = [b.buffer(f"s{k}", span) for k in range(buffers)]

    def access(addr, kind):
        if kind == "w":
            b.store(value, addr, width=64)
        else:
            b.load(addr, width=64)

    for buf, first, lines, step, kind in touches:
        with b.loop(lines) as i:
            access(bufs[buf][i * (step * LINE) + first * LINE], kind)
    with b.loop(trips) as i:
        for buf, offset, kind in sites:
            access(bufs[buf][i * stride + offset], kind)
    return b.build()


def test_an_older_line_a_store_stream_meets_keeps_its_set_in_step():
    # one older clean line of the stream's own buffer, a period ahead: the
    # stream's lines turn dirty in the L3 as they leave the L2, so the
    # ways a set's stack sinks must carry the copy's dirty bits
    program = after_older_lines([(0, 37, 1, 1, "r")], 497, [(0, 0, "w")])
    assert run_both(program) > 0


def test_dirty_lines_of_the_stream_ahead_stay_out_of_the_sinking_ways():
    # the prefix dirties 64 lines of the stream's buffer half a period
    # ahead; while they are in the L2, a set's sinking ways may not hold
    # them, where the L2's dirty eviction would mark them
    program = after_older_lines([(0, 32, 64, 1, "w")], 461, [(0, 0, "w")])
    assert run_both(program) > 0


def test_older_lines_a_second_stream_reaches_keep_the_copy_exact():
    # every other line of the first stream's buffer, three periods ahead:
    # the copy's older ways must lie beyond the period it was taken over
    program = after_older_lines([(1, 208, 256, 2, "r")], 1249,
                                [(1, 0, "w"), (0, 0, "w")], buffers=2)
    assert run_both(program, spec=BIG) > 0


def test_an_older_page_ahead_caps_the_skip():
    # every other line of 4 pages of the stream's buffer, four periods
    # ahead from the second line of the first page: the stream enters
    # that page a period before it meets the first older line, so the
    # skip must stop short of the pages in the second TLB level, not only
    # of the lines in the L3
    capped = run_both(after_older_lines(
        [(0, 257, 16, 2, "r")], 600, [(0, LINE, "r")]), spec=BIG)
    uncapped = run_both(after_older_lines([], 600, [(0, LINE, "r")]),
                        spec=BIG)
    assert 0 < capped < uncapped


def test_a_capped_skip_puts_back_the_far_streams_prefetches():
    # two streams of one buffer, 156 lines apart, behind older lines the
    # far one reaches first: the near one reads the far one's next-line
    # prefetches, so a skip capped short of the loop's end must put back
    # those the skipped periods made, as the whole zone said
    program = after_older_lines(
        [(0, 624, 16, 2, "r")], 340,
        [(0, 156 * LINE, "w"), (0, LINE, "r"), (0, 0, "w")], stride=2 * LINE)
    assert run_both(program, spec=BIG, mask=msr("nextline")) > 0


@pytest.mark.parametrize("engines", [(), ENGINES])
def test_a_warm_rerun_skips_exactly(engines):
    # the second run meets the first run's lines (and prefetches past
    # the ends) in the L3, the TLB and the prefetched set
    program = stream(max(40 * BIG_P, 6 * shift(engines)), sites="rw")
    assert run_both(program, program, spec=BIG, mask=msr(*engines)) > 0


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
    lines = draw(st.integers(
        shortest_skipping(LINE, period, len(sites)) - period // 2,
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
    return (b.build(), msr(*engines), draw(st.sampled_from([0, 1])),
            draw(st.sampled_from(FILLS)), draw(st.sampled_from(SPECS)))



@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(long_streams())
def test_long_streams_match_the_reference_engine(case):
    # counter for counter, and the final caches, TLB, trackers and
    # prefetched lines, from an empty or a pre-filled L3; whether the
    # loop skipped is not asserted, only that whatever it skipped
    # changed nothing
    program, mask, node, fill, spec = case
    run_both(program, mask=mask, node=node, fill=fill, spec=spec)


def test_the_copy_is_allocated_only_for_an_eligible_loop():
    machine = Machine(SPEC)
    datapath = machine.core(0)._datapath
    machine.prefetch_control.write_msr(ALL_DISABLED_MASK)
    machine.run(machine.load(stream(shortest_skipping(LINE) - 1)))
    assert datapath._ff_words is None
    machine.run(machine.load(stream(shortest_skipping(LINE))))
    assert datapath._ff_words.size > 0


def test_the_f4_grid_skips_its_pinned_line_count():
    # the paper's daxpy grid, cold and warm with every prefetcher on:
    # each point's two streams copy once they have swept the first TLB
    # level's reach together, while the buster's lines still sink
    # through the L3; the grid simulates 361,296 of its 2,720,592 line
    # accesses (1,170,256 when a copy waited for the L3 to be swept)
    from repro.machine.ref import MachineRef
    from repro.sweep import make_grid, run_plan

    plan = make_grid("f4", MachineRef.of("snb-ep", scale=0.125))
    run = run_plan(plan, jobs=1, cache=None)
    assert run.plan_cache["skipped_lines"] == 2_359_296


@pytest.mark.parametrize("preset", ["snb", "snb-ep"])
def test_the_cold_buster_simulates_its_pinned_line_count(preset):
    # the buster streams 91,136 lines, twice the caches, into an empty
    # L3: it copies after 4,096 lines and simulates 9,216 of them
    # (44,032 when a copy waited for the L3 to be swept)
    from repro.machine.ref import MachineRef

    machine = MachineRef.of(preset, scale=0.125).build()
    ColdCache().prepare(machine, lambda: None)
    assert 91_136 - machine.core(0).plan_stats.skipped_lines == 9_216


@pytest.mark.parametrize("kernel", ["daxpy", "dgemm-tiled"])
def test_the_s5_engine_sweeps_simulate_every_line(kernel):
    # BENCH_engine.json's sweep speedups time the two engines: a sweep
    # that fast-forwarded would time the skip instead
    from benchmarks.bench_s5_engine import DAXPY_SIZES, DGEMM_SIZES, _sweep

    sizes = DAXPY_SIZES if kernel == "daxpy" else DGEMM_SIZES
    machine = _sweep("fast", kernel, sizes)
    assert machine.core(0).plan_stats.nest_runs > 0
    assert machine.core(0).plan_stats.skipped_lines == 0
