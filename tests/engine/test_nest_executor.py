"""Nest executor parity: whole loop nests through ``repro_execute_nest``.

On the compiled datapath the fast engine lowers each run of top-level
program nodes into a nest descriptor and lets the C kernel walk it,
costing every phase from the kernel's per-phase counter rows in one
array pass.  These tests pin that path to the per-line reference
engine bit for bit — every counter, ``repr`` of every phase total and
of the cycle sum, the PMU snapshot, and the PHASE trace events — and
check that the path is really taken (a silent fallback to the Python
walk would keep parity and lose the speed).
"""

from __future__ import annotations

import random

import pytest

from repro.engine import ckernel, datapath
from repro.engine.plan import (
    NEST_FALLBACK_REASONS, AccessPlan, SymbolicPlan,
)
from repro.errors import ExecutionError
from repro.isa import ProgramBuilder
from repro.kernels import CodegenCaps, kernel_names, make_kernel
from repro.machine.presets import make_machine, tiny_test_machine
from repro.oracle import diff_engine_sides, random_program
from repro.trace.bus import ListSink
from repro.trace.events import PHASE
from tests.conftest import build_descending_gather

pytestmark = pytest.mark.skipif(
    not ckernel.available(), reason="the nest executor needs the C kernel")

#: (registry name, constructor kwargs, two sizes) per parity kernel
PARITY_KERNELS = [
    ("dgemm-naive", {}, (16, 32)),
    ("dgemm-ikj", {}, (16, 32)),
    ("dgemm-blocked", {}, (16, 32)),
    ("dgemm-tiled", {}, (16, 48)),
    ("stencil3", {}, (96, 520)),
    ("triad-nt", {}, (128, 2048)),
    ("ert", {"flops_per_elem": 1}, (256, 4096)),
    ("ert", {"flops_per_elem": 16, "sweeps": 2}, (256, 4096)),
    ("spmv", {}, (64, 512)),
    ("spmv-wide", {}, (64, 512)),
]


def _run_pair(program, factory=tiny_test_machine, trace=False, runs=2):
    """Run ``program`` ``runs`` times on a fast and a reference machine;
    returns ``[(fast machine, fast result, ref machine, ref result,
    fast sink, ref sink)]`` per run."""
    fast, ref = factory(), factory(engine="reference")
    sinks = (ListSink(), ListSink())
    if trace:
        fast.trace.attach(sinks[0])
        ref.trace.attach(sinks[1])
    out = []
    for _ in range(runs):
        fast_run = fast.run(fast.load(program))
        ref_run = ref.run(ref.load(program))
        out.append((fast, fast_run.result, ref, ref_run.result) + sinks)
    return out


def _assert_bit_identical(fast, fast_r, ref, ref_r):
    divs = diff_engine_sides(fast, fast_r, ref, ref_r, 0)
    assert not divs, "\n".join(str(d) for d in divs)
    assert repr(fast_r.cycles) == repr(ref_r.cycles)
    assert [repr(p.total) for p in fast_r.phases] == \
        [repr(p.total) for p in ref_r.phases]
    assert fast_r.phases == ref_r.phases
    assert all(type(v) is float for p in fast_r.phases
               for v in p.as_dict().values())
    assert fast.core_pmu(0).snapshot() == ref.core_pmu(0).snapshot()
    assert list(fast.core_pmu(0).snapshot()) == \
        list(ref.core_pmu(0).snapshot())


def _phase_events(sink):
    return [(e.name, e.ts, e.dur, e.args) for e in sink.events
            if e.kind == PHASE]


@pytest.mark.parametrize(
    "name,kwargs,sizes", PARITY_KERNELS,
    ids=[f"{n}-{'-'.join(f'{k}{v}' for k, v in kw.items())}"
         for n, kw, _s in PARITY_KERNELS])
def test_registry_kernels_match_reference(name, kwargs, sizes):
    caps = CodegenCaps.from_machine(tiny_test_machine())
    for n in sizes:
        program = make_kernel(name, **kwargs).build(n, caps)
        for fast, fast_r, ref, ref_r, _fs, _rs in _run_pair(program):
            _assert_bit_identical(fast, fast_r, ref, ref_r)
        stats = fast.core(0).plan_stats
        assert stats.nest_runs > 0
        assert not any(stats.fallbacks.values())


@pytest.mark.parametrize("name", ["dgemm-naive", "dgemm-tiled", "stencil3",
                                  "triad-nt", "spmv"])
def test_phase_trace_events_match_reference(name):
    caps = CodegenCaps.from_machine(tiny_test_machine())
    program = make_kernel(name).build(32 if name.startswith("dgemm")
                                      else 256, caps)
    for fast, fast_r, ref, ref_r, fsink, rsink in _run_pair(
            program, trace=True):
        _assert_bit_identical(fast, fast_r, ref, ref_r)
    fast_phases = _phase_events(fsink)
    assert fast_phases and fast_phases == _phase_events(rsink)


@pytest.mark.parametrize("seed", range(20))
def test_conformance_corpus_matches_reference(seed):
    program = random_program(random.Random(seed))
    for fast, fast_r, ref, ref_r, fsink, rsink in _run_pair(
            program, trace=True):
        _assert_bit_identical(fast, fast_r, ref, ref_r)
    assert _phase_events(fsink) == _phase_events(rsink)


def test_chunked_calls_resume_exactly(monkeypatch):
    # three-row calls force the walk to stop and resume at phase
    # boundaries inside every level of the nest
    monkeypatch.setattr(datapath, "NEST_MAX_ROWS", 3)
    caps = CodegenCaps.from_machine(tiny_test_machine())
    for name in ("dgemm-naive", "dgemm-tiled", "spmv"):
        program = make_kernel(name).build(16, caps)
        for fast, fast_r, ref, ref_r, fsink, rsink in _run_pair(
                program, trace=True):
            _assert_bit_identical(fast, fast_r, ref, ref_r)
        assert _phase_events(fsink) == _phase_events(rsink)
        assert fast.core(0)._datapath.nest_rows.shape[0] == 3


def test_home_node_mutation_rebinds_the_nest():
    fast = make_machine("snb-ep-x2", scale=0.0625)
    ref = make_machine("snb-ep-x2", scale=0.0625, engine="reference")
    program = make_kernel("dgemm-ikj").build(16,
                                             CodegenCaps.from_machine(fast))
    for node in (0, 1, 0):
        fast_r = fast.run(fast.load(program, node=node)).result
        ref_r = ref.run(ref.load(program, node=node)).result
        _assert_bit_identical(fast, fast_r, ref, ref_r)
        assert fast_r.batch.remote_dram_lines == \
            ref_r.batch.remote_dram_lines


def test_analyze_dgemm_program_takes_the_nest_path(monkeypatch):
    binds = []
    original = SymbolicPlan.bind
    monkeypatch.setattr(SymbolicPlan, "bind",
                        lambda self, *a, **k: binds.append(1)
                        or original(self, *a, **k))
    machine = make_machine("snb", scale=0.125)
    caps = CodegenCaps.from_machine(machine)
    program = make_kernel("dgemm-tiled").build(64, caps)
    machine.run(machine.load(program))
    stats = machine.core(0).plan_stats
    assert stats.nest_runs > 0
    assert not binds
    assert stats.lookups == 0 and stats.built_lines == 0
    assert not any(stats.fallbacks.values())


def test_every_registry_kernel_runs_whole_in_the_nest():
    # the census: no registry kernel walks a node or consults a plan
    # tier on the C datapath
    caps = CodegenCaps.from_machine(tiny_test_machine())
    for name in kernel_names():
        machine = tiny_test_machine()
        n = 32 if name.startswith(("dgemm", "fft")) else 64
        machine.run(machine.load(make_kernel(name).build(n, caps)))
        stats = machine.core(0).plan_stats
        assert stats.nest_runs > 0, name
        assert not any(stats.fallbacks.values()), (name, stats.fallbacks)
        assert stats.hits + stats.misses == 0, name


# ----------------------------------------------------------------------
# gathers: a nest site, in the walk's emission order
# ----------------------------------------------------------------------
def _nested_gathers(width):
    """SpMV-shaped gathers: per row, a straight-line gather between the
    loop levels, then one flat loop per index entry stride (0, 1, 2 and
    -1), each gather beside an affine load, then a gather alone; every
    index has an outer-iv term.  Table entries come in same-line pairs,
    and every third sits 8 bytes before a line end, so wide gathers
    straddle lines."""
    b = ProgramBuilder()
    x = b.buffer("x", 8192)
    vals = b.buffer("vals", 4096)
    y = b.buffer("y", 1024)
    table = b.index_table("cols", [
        ((e // 2) * 37 % 120) * 64 + (56 if e % 3 == 0 else 8 * (e % 7))
        for e in range(64)])
    r = b.reg()
    k = 4
    with b.loop(12, "row") as row:
        b.gather(x, table[row * 2 + 1], width=width)
        for name, stride, offset in (("s0", 0, 0), ("s1", 1, 0),
                                     ("s2", 2, 0), ("down", -1, k - 1)):
            with b.loop(k, name) as j:
                b.gather(x, table[row * k + j * stride + offset],
                         width=width)
                b.load(vals[row * 256 + j * 64], width=64)
        with b.loop(k, "alone") as j:
            b.gather(x, table[row * k + j * 1], width=width)
        b.store(r, y[row * 8], width=64)
    return b.build()


@pytest.mark.parametrize("width", [64, 128, 256])
def test_nested_gathers_match_reference(width):
    program = _nested_gathers(width)
    for fast, fast_r, ref, ref_r, fsink, rsink in _run_pair(
            program, trace=True):
        _assert_bit_identical(fast, fast_r, ref, ref_r)
    assert _phase_events(fsink) == _phase_events(rsink)
    stats = fast.core(0).plan_stats
    assert stats.nest_runs == 2 and stats.lookups == 0
    assert not any(stats.fallbacks.values())


def test_gather_nodes_run_in_the_nest():
    b = ProgramBuilder()
    buf = b.buffer("data", 4096)
    table = b.index_table("tab0", [(i * 24) % 4000 for i in range(40)])
    with b.loop(32) as i:
        b.gather(buf, table[i], width=64)
    with b.loop(32) as i:
        b.load(buf[i * 64], width=64)
    program = b.build()
    for fast, fast_r, ref, ref_r, _fs, _rs in _run_pair(program):
        _assert_bit_identical(fast, fast_r, ref, ref_r)
    stats = fast.core(0).plan_stats
    assert stats.nest_runs == 2
    assert not any(stats.fallbacks.values())


def _out_of_table(kind):
    if kind == "below":
        return build_descending_gather(check_bounds=False)
    b = ProgramBuilder()
    x = b.buffer("x", 4096)
    table = b.index_table("t", [64 * e for e in range(16)])
    if kind == "above":
        with b.loop(8) as i:
            b.gather(x, table[i + 10], width=64)
    else:  # a straight-line gather whose outer iv runs past the table
        with b.loop(4) as j:
            b.gather(x, table[j * 6], width=64)
            with b.loop(2) as i:
                b.load(x[i * 64], width=64)
    return b.build(check_bounds=False)


@pytest.mark.parametrize("side", ["fast", "reference", "walk"])
@pytest.mark.parametrize("kind,entries", [
    ("below", r"-5\.\.2"), ("above", r"10\.\.17"),
    ("straight", r"(0|18)\.\.18")])
def test_out_of_table_gathers_raise(kind, entries, side, request):
    # the nest checks each gather's reachable entries when it lowers
    # it (0..18 for the straight-line one); the walk checks each
    # execution's (18..18), with no numpy wraparound below 0
    if side == "walk":
        request.getfixturevalue("walk_on_c")
    program = _out_of_table(kind)
    machine = tiny_test_machine(
        engine="reference" if side == "reference" else "fast")
    with pytest.raises(ExecutionError,
                       match=f"index-table entries {entries} of 't'"):
        machine.run(machine.load(program))


def _straight_line_program():
    """Straight-line accesses of every kind between loop levels:
    line-crossing gathers, loads and stores, an NT store, prefetch hints
    (one and two lines) and flushes, beside one-line demand accesses."""
    b = ProgramBuilder()
    data = b.buffer("data", 16384)
    out = b.buffer("out", 8192)
    table = b.index_table("tab0", [(i * 712) % 12000 + 40
                                   for i in range(24)])
    r = b.reg()
    with b.loop(6) as j:
        with b.loop(4) as i:
            b.gather(data, table[i + j * 4], width=256)
        b.gather(data, table[j * 3 + 1], width=256)
        b.load(data[j * 64 + 48], width=256)
        b.load(data[j * 512], width=64)
        b.store(r, out[j * 128 + 40], width=256)
        b.store(r, out[j * 64 + 4096], width=256, nt=True)
        b.prefetch(data[j * 192 + 8192 + 60])
        b.prefetch(data[j * 192 + 8256])
        b.flush(out[j * 128 + 40])
        b.flush(out[j * 128 + 64])
        b.store(r, out[j * 8 + 2048], width=64)
        b.load(data[j * 192 + 8192], width=128)
    return b.build()


def _events(sink):
    return [(e.kind, e.name, e.ts, e.core, e.dur, e.args)
            for e in sink.events]


def _run_straight_line_pair(node, monkeypatch):
    """Run :func:`_straight_line_program` twice on a traced snb-ep-x2
    pair with its buffers on ``node``, asserting parity; returns the fast
    machine, its last result, the sinks and the one-run plans built."""
    plans = []
    original = AccessPlan.one_run
    monkeypatch.setattr(AccessPlan, "one_run", classmethod(
        lambda cls, *a: plans.append(a[0]) or original(*a)))
    fast = make_machine("snb-ep-x2", scale=0.0625)
    ref = make_machine("snb-ep-x2", scale=0.0625, engine="reference")
    sinks = (ListSink(), ListSink())
    fast.trace.attach(sinks[0])
    ref.trace.attach(sinks[1])
    program = _straight_line_program()
    for _ in range(2):
        fast_r = fast.run(fast.load(program, node=node)).result
        ref_r = ref.run(ref.load(program, node=node)).result
        _assert_bit_identical(fast, fast_r, ref, ref_r)
        assert sorted(fast.hierarchy.port(0)._prefetched) == \
            sorted(ref.hierarchy.port(0)._prefetched)
    assert (fast_r.batch.remote_dram_lines > 0) == (node == 1)
    assert fast_r.batch.flushes and fast_r.batch.writebacks
    assert fast_r.batch.nt_lines and fast_r.batch.sw_prefetches
    assert fast_r.batch.prefetch_useful
    return fast, sinks, plans


@pytest.mark.parametrize("node", [0, 1], ids=["local", "remote"])
def test_straight_line_accesses_run_in_the_nest(node, monkeypatch):
    fast, sinks, plans = _run_straight_line_pair(node, monkeypatch)
    # one batch event set per nest call, so only PHASE events compare
    assert _phase_events(sinks[0]) == _phase_events(sinks[1])
    stats = fast.core(0).plan_stats
    assert stats.nest_runs == 2 and not plans
    assert not any(stats.fallbacks.values())


@pytest.mark.parametrize("node", [0, 1], ids=["local", "remote"])
def test_walked_straight_line_accesses_run_in_the_kernel(node, monkeypatch,
                                                        walk_on_c):
    fast, sinks, plans = _run_straight_line_pair(node, monkeypatch)
    assert _events(sinks[0]) == _events(sinks[1])
    assert fast.core(0).plan_stats.fallbacks["unsupported"] == 2
    # the kernel ran every access as a one-run plan (the array state
    # raises on any Python transition), one-line demand accesses too
    assert set(plans) == {"gather", "load", "store", "ntstore",
                          "prefetch", "flush"}


def test_negative_multisite_stride_still_raises():
    b = ProgramBuilder()
    buf = b.buffer("data", 4096)
    with b.loop(32) as i:
        b.load(buf[i * -16 + 31 * 16], width=64)
        b.load(buf[i * 8], width=64)
    program = b.build()
    machine = tiny_test_machine()
    with pytest.raises(ExecutionError, match="negative loop strides"):
        machine.run(machine.load(program))
    assert machine.core(0).plan_stats.fallbacks[
        "negative_multisite_stride"] == 1


def test_reference_engine_and_python_datapath_count_their_fallbacks(
        no_ckernel):
    program = make_kernel("daxpy").build(64, CodegenCaps.from_machine(
        tiny_test_machine()))
    ref = tiny_test_machine(engine="reference")
    ref.run(ref.load(program))
    assert ref.core(0).plan_stats.fallbacks["reference_engine"] > 0
    with no_ckernel():
        machine = tiny_test_machine()
        machine.run(machine.load(program))
        stats = machine.core(0).plan_stats
    assert stats.fallbacks["no_ckernel"] > 0
    assert stats.nest_runs == 0
    assert set(stats.fallbacks) == set(NEST_FALLBACK_REASONS)
