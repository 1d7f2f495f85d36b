"""Size-polymorphic symbolic plans: the cross-engine property band.

The compile tier interns a loop's *structure* once per process
(:data:`repro.engine.plan.SYMBOLIC_REGISTRY`) and materialises one
bound :class:`AccessPlan` per concrete ``(trips, site ids, base,
stride, home)`` assignment.  The headline property locked down here:

    a plan compiled at problem size A and replayed at sizes B != A on
    the *same warm machine* must produce counters identical to the
    reference engine, for every observable the differential oracle
    diffs.

Everything below is either that property (hypothesis-driven over the
kernel registry plus a deterministic matrix) or a unit test of the
two-tier machinery it rides on.
"""

from __future__ import annotations

import itertools

import pytest

from repro.engine.ckernel import OP_DEMAND_WRITE
from repro.engine.plan import (
    SYMBOLIC_REGISTRY,
    AccessPlan,
    PlanCache,
    PlanCacheStats,
    SymbolicRegistry,
)
from repro.isa import ProgramBuilder
from repro.kernels import CodegenCaps, make_kernel
from repro.machine.presets import make_machine, tiny_test_machine
from repro.oracle import (
    diff_engine_sides,
    render_program,
    run_cross_engine_sequence,
)
from tests.conftest import build_gather_beside_affine, needs_ckernel

#: monotone source of never-before-seen structural keys, so unit tests
#: stay independent of interning done earlier in the process
_FRESH = itertools.count()


def _fresh_skey(sites=()):
    return (f"unit-loop-{next(_FRESH)}", tuple(sites))


def _programs(name: str, sizes):
    caps = CodegenCaps.from_machine(tiny_test_machine())
    kernel = make_kernel(name)
    return [kernel.build(n, caps) for n in sizes]


# ----------------------------------------------------------------------
# symbolic tier: structural interning
# ----------------------------------------------------------------------
def test_registry_interns_structurally():
    sites = (("load", 64, "buf0", ("i",)),)
    skey = _fresh_skey(sites)
    first, fresh1 = SYMBOLIC_REGISTRY.intern(skey)
    again, fresh2 = SYMBOLIC_REGISTRY.intern(skey)
    assert fresh1 and not fresh2
    assert again is first
    # an equal-by-value key built from different tuple objects resolves
    # to the same interned plan: identity is structural, not id()-based
    clone = (skey[0], (("load", 64, "buf0", ("i",)),))
    third, fresh3 = SYMBOLIC_REGISTRY.intern(clone)
    assert third is first and not fresh3


def test_registry_distinguishes_structures():
    reg = SymbolicRegistry()
    read, _ = reg.intern(("i", (("load", 64, "x", ("i",)),)))
    write, _ = reg.intern(("i", (("store", 64, "x", ("i",)),)))
    wide, _ = reg.intern(("i", (("load", 256, "x", ("i",)),)))
    other_buf, _ = reg.intern(("i", (("load", 64, "y", ("i",)),)))
    plans = {id(p) for p in (read, write, wide, other_buf)}
    assert len(plans) == 4
    assert len(reg) == 4


def test_resolve_symbolic_counts_hits_and_misses():
    cache = PlanCache()
    skey = _fresh_skey()
    cache.resolve_symbolic(skey)
    assert (cache.stats.misses, cache.stats.hits) == (1, 0)
    cache.resolve_symbolic(skey)
    assert (cache.stats.misses, cache.stats.hits) == (1, 1)
    cache.note_symbolic_hit()
    assert cache.stats.hits == 2
    # another core's cache sees the process-level interning as a hit:
    # the structure was compiled once, everywhere
    other = PlanCache()
    other.resolve_symbolic(skey)
    assert (other.stats.misses, other.stats.hits) == (0, 1)


# ----------------------------------------------------------------------
# bind: one structure, many concrete materialisations
# ----------------------------------------------------------------------
def test_bind_scales_with_trip_count():
    sym, _ = SYMBOLIC_REGISTRY.intern(
        _fresh_skey((("load", 64, "x", ("i",)),))
    )
    descs = [("load", 0, 0, 8, 8, 0)]
    small = sym.bind(descs, 8, 6, 0)
    big = sym.bind(descs, 64, 6, 0)
    assert small.total_lines >= 1
    assert big.total_lines == 8 * small.total_lines
    assert small is not big


def test_bind_respects_base_binding():
    sym, _ = SYMBOLIC_REGISTRY.intern(
        _fresh_skey((("load", 64, "x", ("i",)),))
    )
    at_zero = sym.bind([("load", 0, 0, 8, 8, 0)], 16, 6, 0)
    offset = sym.bind([("load", 0, 1 << 20, 8, 8, 0)], 16, 6, 0)
    assert at_zero.total_lines == offset.total_lines
    # same shape, different addresses: the bound plans must not alias
    zero_lines = set(at_zero.lines.tolist())
    off_lines = set(offset.lines.tolist())
    assert zero_lines and off_lines
    assert zero_lines.isdisjoint(off_lines)


def test_bound_tier_memoises_and_counts_built_lines():
    cache = PlanCache()
    plan = AccessPlan.one_run("load", [0, 1, 2, 3], 0, 0)
    bkey = (0, 8, (0,), ((0, 8, 0),))
    assert cache.get_bound(bkey) is None
    cache.put_bound(bkey, plan)
    assert cache.get_bound(bkey) is plan
    assert cache.stats.built_lines == 4
    assert len(cache) == 1


def test_bound_tier_flushes_at_the_line_cap():
    cache = PlanCache(max_lines=10)
    six = list(range(6))
    cache.put_bound(("a",), AccessPlan.one_run("load", six, 0, 0))
    cache.put_bound(("b",), AccessPlan.one_run("load", six, 0, 0))
    assert cache.stats.flushes == 1
    assert cache.get_bound(("a",)) is None
    assert cache.get_bound(("b",)) is not None


# ----------------------------------------------------------------------
# the headline property: compile at A, replay at B != A
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

#: affine kernels plus ``spmv`` (gathers, in the nest)
_KERNELS = (
    "daxpy", "triad", "dot", "scale", "sum", "strided-sum",
    "read", "memset", "memcpy", "stencil3", "dgemv-row", "spmv",
)
_SIZES = (32, 48, 64, 96, 128)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_plan_compiled_at_size_a_replays_at_size_b(data):
    name = data.draw(st.sampled_from(_KERNELS))
    caps = CodegenCaps.from_machine(tiny_test_machine())
    kernel = make_kernel(name)
    sizes = []
    for n in _SIZES:
        try:
            kernel.validate_n(n, caps)
        except Exception:
            continue
        sizes.append(n)
    size_a = data.draw(st.sampled_from(sizes))
    size_b = data.draw(st.sampled_from(
        [s for s in sizes if s != size_a]
    ))
    mask = data.draw(st.integers(min_value=0, max_value=15))
    # A then B then A again: the final leg replays a structure bound at
    # both sizes on a machine whose caches are warm with B's data
    programs = _programs(name, (size_a, size_b, size_a))
    outcome = run_cross_engine_sequence(programs, prefetch_mask=mask)
    assert outcome.ok, "\n".join(
        [f"kernel {name} sizes ({size_a}, {size_b}, {size_a}) "
         f"mask {mask}"]
        + [str(d) for d in outcome.divergences]
        + ["program:", render_program(programs[0])]
    )


@pytest.mark.parametrize("name,sizes", [
    ("daxpy", (64, 256, 64)),
    ("dgemm-tiled", (16, 24, 16)),
    ("fft", (32, 64, 32)),
    ("spmv", (48, 96, 48)),
    ("triad-nt", (64, 128, 64)),
])
def test_size_replay_matrix(name, sizes):
    # the warm fast machine lowers each size afresh (new trip counts,
    # buffer bases and, for spmv, index tables): on the C datapath
    # every program runs in the nest and no plan tier is consulted
    machines = []

    def factory(engine="fast"):
        machines.append(tiny_test_machine(engine=engine))
        return machines[-1]

    outcome = run_cross_engine_sequence(_programs(name, sizes),
                                        machine_factory=factory)
    assert outcome.ok, "\n".join(
        [f"kernel {name} sizes {sizes}"]
        + [str(d) for d in outcome.divergences]
    )
    stats = machines[0].core(0).plan_stats
    assert stats.lookups == 0 and len(machines[0].core(0).plan_cache) == 0
    if machines[0].core(0)._compiled:
        assert stats.nest_runs == len(sizes)
        assert not any(stats.fallbacks.values())


# ----------------------------------------------------------------------
# the two lowerings agree: capture vs vectorized affine
# ----------------------------------------------------------------------
@st.composite
def _affine_flat_loops(draw):
    """(trips, sites) for one flat loop: per site its kind, buffer,
    stride and offset (bytes, non-negative) and width (bits)."""
    trips = draw(st.integers(min_value=1, max_value=48))
    sites = draw(st.lists(st.tuples(
        st.sampled_from(("load", "store", "ntstore", "prefetch", "flush")),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=40).map(lambda k: 8 * k),
        st.integers(min_value=0, max_value=16).map(lambda k: 8 * k),
        st.sampled_from((64, 128, 256)),
    ), min_size=1, max_size=4))
    return trips, sites


def _affine_flat_loop_program(trips, sites):
    b = ProgramBuilder()
    size = 64 + max(off + stride * (trips - 1) + width // 8
                    for _kind, _buf, stride, off, width in sites)
    bufs = [b.buffer(f"b{k}", size) for k in range(2)]
    src = b.reg()
    with b.loop(trips, "i") as i:
        for kind, buf, stride, off, width in sites:
            addr = bufs[buf][i * stride + off]
            if kind == "load":
                b.load(addr, width=width)
            elif kind == "prefetch":
                b.prefetch(addr)
            elif kind == "flush":
                b.flush(addr)
            else:
                b.store(src, addr, width=width, nt=kind == "ntstore")
    return b.build()


@given(_affine_flat_loops())
@settings(max_examples=60, deadline=None)
def test_captured_and_affine_lowerings_pack_the_same_table(loop_spec):
    # on the columns the kernel reads: lines, [op, home, remote, offset,
    # count] per run, and the stream ids of demand runs
    program = _affine_flat_loop_program(*loop_spec)
    machine = tiny_test_machine()
    buffers = machine.load(program).buffer_map
    core = machine.core(0)
    (loop,) = program.body
    info = core._analyze(loop)
    assert info.skey is not None
    captured = AccessPlan.from_emissions(
        core._iter_emissions(info, loop, {}, buffers), core.port.node)
    descs = []
    for site in info.mem_sites:
        base, stride, node = core._site_base_stride(
            site, loop.loop_id, {}, buffers)
        descs.append((site.kind, site.site_id, base, stride,
                      site.width_bits // 8, node))
    affine = AccessPlan.from_affine_sites(
        descs, loop.trips, core._line_shift, core.port.node)
    assert captured.lines.tolist() == affine.lines.tolist()
    assert captured.meta[:, :5].tolist() == affine.meta[:, :5].tolist()
    for row_c, row_a in zip(captured.meta.tolist(), affine.meta.tolist()):
        op, _home, _remote, off, count, sid_mode = row_c
        if op > OP_DEMAND_WRITE:
            continue
        assert sid_mode == row_a[5]
        if sid_mode == -1:
            assert captured.sids[off:off + count].tolist() \
                == affine.sids[off:off + count].tolist()


# ----------------------------------------------------------------------
# stale-plan hazards: mutated bindings must rebind, never replay
# ----------------------------------------------------------------------
@needs_ckernel
def test_reloading_moves_buffer_bases_and_rebinds(walk_on_c):
    # every machine.load() maps fresh allocations, so running the same
    # program twice mutates every buffer base under a cached structure
    machine = tiny_test_machine()
    program = build_gather_beside_affine(32)
    first = machine.load(program)
    machine.run(first)
    cache = machine.core(0).plan_cache
    bound_after_first = len(cache._bound)
    assert bound_after_first
    second = machine.load(program)
    moved = {
        name for name in first.buffer_map
        if first.buffer_map[name].base != second.buffer_map[name].base
    }
    assert moved  # the hazard is real: bases did change
    machine.run(second)
    # a silent replay would leave the cache untouched (and corrupt
    # the functional state); a rebind materialises new entries
    assert len(cache._bound) > bound_after_first
    assert machine.core(0).plan_stats.flushes == 0


def test_same_program_reloaded_matches_reference_counters():
    program = _programs("stencil3", (96,))[0]
    outcome = run_cross_engine_sequence([program, program, program])
    assert outcome.ok, "\n".join(str(d) for d in outcome.divergences)


@needs_ckernel
def test_home_node_mutation_rebinds_without_silent_reuse(walk_on_c):
    # remap the same program onto the other NUMA node between runs:
    # the plans' per-line homes change while structure, trips, and
    # strides all stay identical (the nest executor's analogue lives in
    # tests/engine/test_nest_executor.py)
    fast = make_machine("snb-ep-x2", scale=0.0625)
    ref = make_machine("snb-ep-x2", scale=0.0625, engine="reference")
    program = build_gather_beside_affine(32)
    bound_counts = []
    for node in (0, 1, 0):
        fast_run = fast.run(fast.load(program, node=node))
        ref_run = ref.run(ref.load(program, node=node))
        divs = diff_engine_sides(
            fast, fast_run.result, ref, ref_run.result, 0
        )
        assert not divs, "\n".join(
            [f"node {node}"] + [str(d) for d in divs]
        )
        bound_counts.append(len(fast.core(0).plan_cache._bound))
    # each placement added entries instead of reusing stale homes
    assert 0 < bound_counts[0] < bound_counts[1] < bound_counts[2]


# ----------------------------------------------------------------------
# telemetry: the second size rebinds instead of recompiling
# ----------------------------------------------------------------------
def _run_gather_beside_affine(machine, n: int) -> None:
    machine.run(machine.load(build_gather_beside_affine(n)))


@needs_ckernel
def test_dgemm_sweep_plan_cache_telemetry_regression(walk_on_c):
    # the compile-tier amortization story the walked loops ride on:
    # every size resolves through the same interned structure, so the
    # aggregate hit rate must stay near-perfect
    total = PlanCacheStats()
    for n in (16, 24, 32, 40):
        for _rep in range(2):
            machine = tiny_test_machine()
            _run_gather_beside_affine(machine, n)
            stats = machine.core(0).plan_stats
            assert stats.fallbacks["unsupported"] > 0
            total.hits += stats.hits
            total.misses += stats.misses
            total.built_lines += stats.built_lines
            total.flushes += stats.flushes
    assert total.hits > 0
    assert total.hit_rate >= 0.95
    assert total.flushes == 0
    assert total.built_lines > 0


@needs_ckernel
def test_second_size_rebinds_without_symbolic_misses(walk_on_c):
    machine = tiny_test_machine()
    _run_gather_beside_affine(machine, 32)
    core = machine.core(0)
    stats = core.plan_stats
    hits0, misses0 = stats.hits, stats.misses
    interned0 = len(SYMBOLIC_REGISTRY)
    bound0 = len(core.plan_cache._bound)
    built0 = stats.built_lines
    _run_gather_beside_affine(machine, 64)
    # the affine structure was interned by the first run (or earlier in
    # the process): a new problem size adds zero symbolic misses, and
    # the gather loop is packed uncached, counting no lookup
    assert len(SYMBOLIC_REGISTRY) == interned0
    assert stats.misses == misses0
    assert stats.hits > hits0
    assert stats.hit_rate >= 0.95
    # ... but it does materialise fresh bindings at the new trip
    # counts and buffer bases
    assert len(core.plan_cache._bound) > bound0
    assert stats.built_lines > built0
    assert stats.flushes == 0
