"""Two-tier engine equivalence: fast vs reference, counter for counter.

On the C datapath the fast engine replays compiled access plans through
the kernel; the reference engine (and the fast engine without the
kernel) dispatches the identical emission stream one port call at a
time.  These tests pin the equivalence contract at
three granularities: fuzzed programs (every observable via
``run_cross_engine``), full kernel measurements (byte-identical W/Q/T
JSON), and the compile tier's own telemetry (plan caching actually
happens, and only on the fast engine's C datapath).
"""

from __future__ import annotations

import json

import pytest

from repro.engine import ENGINES, ckernel, validate_engine
from repro.errors import ConfigurationError
from repro.isa import ProgramBuilder
from repro.kernels import CodegenCaps, kernel_names, make_kernel
from repro.machine.presets import make_machine, tiny_test_machine
from repro.machine.ref import MachineRef
from repro.measure import measure_kernel
from repro.oracle import render_program, run_cross_engine
from repro.trace import measurement_to_dict
from tests.conftest import build_gather_beside_affine, needs_ckernel


# ----------------------------------------------------------------------
# engine selection plumbing
# ----------------------------------------------------------------------
def test_validate_engine_accepts_known_and_rejects_unknown():
    for engine in ENGINES:
        assert validate_engine(engine) == engine
    with pytest.raises(ConfigurationError):
        validate_engine("turbo")


def test_machine_and_cores_carry_the_engine():
    machine = tiny_test_machine(engine="reference")
    assert machine.engine == "reference"
    assert machine.walk_reason == "reference_engine"
    assert not machine.core(0)._compiled
    fast = tiny_test_machine()
    assert fast.engine == "fast"
    assert fast.core(0)._compiled == ckernel.available()


def test_machine_ref_engine_roundtrip_and_key_doc():
    ref = MachineRef.of("tiny", engine="reference")
    assert ref.build().engine == "reference"
    assert ref.key_doc()["engine"] == "reference"
    assert "engine=reference" in ref.describe()
    # the default engine stays out of the cache key so pre-existing
    # content-addressed sweep results keep their identities
    default = MachineRef.of("tiny")
    assert "engine" not in default.key_doc()
    assert default.build().engine == "fast"


def test_machine_ref_rejects_unknown_engine():
    with pytest.raises(ConfigurationError):
        MachineRef.of("tiny", engine="warp")


# ----------------------------------------------------------------------
# cross-engine differential fuzz (hypothesis-shrunk)
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.oracle import random_program  # noqa: E402


class HypoRng:
    """random.Random-shaped adapter over a hypothesis data draw."""

    def __init__(self, data) -> None:
        self.data = data

    def randint(self, a: int, b: int) -> int:
        return self.data.draw(st.integers(min_value=a, max_value=b))

    def choice(self, seq):
        return self.data.draw(st.sampled_from(list(seq)))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_fast_engine_matches_reference_engine(data):
    rng = HypoRng(data)
    program = random_program(rng)
    mask = rng.randint(0, 15)
    outcome = run_cross_engine(program, prefetch_mask=mask)
    assert outcome.ok, "\n".join(
        [f"prefetch mask {mask}"]
        + [str(d) for d in outcome.divergences]
        + ["program:", render_program(program)]
    )


# ----------------------------------------------------------------------
# equivalence matrix: machine preset x prefetcher configuration
# ----------------------------------------------------------------------
#: scaled-down snb keeps the reference side fast while exercising the
#: real Sandy Bridge hierarchy shape; oracle is the single-core
#: big-uniform-cache preset the analytic model targets
_MATRIX_PRESETS = {
    "tiny": tiny_test_machine,
    "snb": lambda engine="fast": make_machine("snb", scale=0.0625,
                                              engine=engine),
    "oracle": lambda engine="fast": make_machine("oracle", engine=engine),
}
#: all prefetchers on, a mixed mask, and all off
_MATRIX_MASKS = (0, 5, 15)
_MATRIX_KERNELS = ("daxpy", "stencil3", "spmv")


@pytest.mark.parametrize("mask", _MATRIX_MASKS)
@pytest.mark.parametrize("preset", sorted(_MATRIX_PRESETS))
def test_cross_engine_matrix_preset_by_prefetchers(preset, mask):
    factory = _MATRIX_PRESETS[preset]
    caps = CodegenCaps.from_machine(factory())
    for name in _MATRIX_KERNELS:
        program = make_kernel(name).build(64, caps)
        outcome = run_cross_engine(
            program, prefetch_mask=mask, machine_factory=factory
        )
        assert outcome.ok, "\n".join(
            [f"preset {preset} mask {mask} kernel {name}"]
            + [str(d) for d in outcome.divergences]
        )


# ----------------------------------------------------------------------
# non-symbolic loops: in the nest, or walked and packed uncached
# ----------------------------------------------------------------------
def _gather_program():
    b = ProgramBuilder()
    buf = b.buffer("data", 4096)
    table = b.index_table("tab0", [(i * 24) % 4000 for i in range(40)])
    with b.loop(32) as i:
        b.gather(buf, table[i], width=64)
    return b.build()


def _descending_program():
    # a descending loop beside a one-trip gather in one top-level loop
    b = ProgramBuilder()
    buf = b.buffer("data", 4096)
    table = b.index_table("tab0", [0])
    with b.loop(2, "row"):
        with b.loop(1) as g:
            b.gather(buf, table[g], width=64)
        with b.loop(32) as i:
            b.load(buf[i * -16 + 31 * 16], width=128)
    return b.build()


@needs_ckernel
@pytest.mark.parametrize("walk", [False, True], ids=["nest", "walk"])
@pytest.mark.parametrize("build", [_gather_program, _descending_program],
                         ids=["gather", "negative-stride"])
def test_non_affine_loops_run_uncached(build, walk, request):
    if walk:
        request.getfixturevalue("walk_on_c")
    program = build()
    outcome = run_cross_engine(program)
    assert outcome.ok, "\n".join(str(d) for d in outcome.divergences)
    # white-box: the nest runs these shapes whole; walked, they are
    # packed from the emission walk and never reach a plan tier
    machine = tiny_test_machine()
    machine.run(machine.load(program))
    stats = machine.core(0).plan_stats
    assert len(machine.core(0).plan_cache) == 0 and stats.lookups == 0
    assert (stats.nest_runs == 0) == walk
    assert stats.fallbacks["unsupported"] == (1 if walk else 0)


# ----------------------------------------------------------------------
# full-methodology byte identity on every registry kernel
# ----------------------------------------------------------------------
def _measure_doc(engine: str, name: str, n: int) -> str:
    machine = tiny_test_machine(engine=engine)
    measurement = measure_kernel(machine, make_kernel(name), n, reps=2)
    return json.dumps(measurement_to_dict(measurement), sort_keys=True)


@pytest.mark.parametrize("name", kernel_names())
def test_measure_kernel_byte_identical_across_engines(name):
    n = 32 if name.startswith(("dgemm", "fft")) else 64
    assert _measure_doc("fast", name, n) == _measure_doc("reference", name, n)


def test_warm_protocol_byte_identical_across_engines():
    docs = []
    for engine in ENGINES:
        machine = tiny_test_machine(engine=engine)
        m = measure_kernel(machine, make_kernel("daxpy"), 256,
                           protocol="warm", reps=2)
        docs.append(json.dumps(measurement_to_dict(m), sort_keys=True))
    assert docs[0] == docs[1]


# ----------------------------------------------------------------------
# compile tier: plan caching behaviour
# ----------------------------------------------------------------------
@needs_ckernel
def test_fast_engine_hits_the_plan_cache_across_reps(walk_on_c):
    machine = tiny_test_machine()
    loaded = machine.load(build_gather_beside_affine(32))
    for _rep in range(3):
        machine.run(loaded)
    stats = machine.core(0).plan_stats
    # structure interning is process-global, so `misses` can be zero
    # here (an earlier test may have interned the affine loop's shape
    # already); what this machine guarantees is reuse: reruns of one
    # loaded program (A/B windows, reps) replay the same plans
    assert stats.hits > 0
    assert stats.hits > stats.misses
    assert stats.hit_rate >= 0.8
    assert stats.built_lines > 0
    assert stats.flushes == 0


def test_reference_engine_never_compiles_plans():
    machine = tiny_test_machine(engine="reference")
    measure_kernel(machine, make_kernel("daxpy"), 256, reps=2)
    core = machine.core(0)
    assert len(core.plan_cache) == 0
    assert core.plan_stats.lookups == 0


@needs_ckernel
def test_plan_key_distinguishes_buffer_placement(walk_on_c):
    # same program shape run at two sizes -> one shared symbolic
    # structure, but different trip counts and buffer bases -> new
    # bound-tier entries (no false sharing between distinct contexts)
    machine = tiny_test_machine()
    machine.run(machine.load(build_gather_beside_affine(32)))
    cache = machine.core(0).plan_cache
    first = len(cache._bound)
    assert first
    machine.run(machine.load(build_gather_beside_affine(64)))
    assert len(cache._bound) > first
