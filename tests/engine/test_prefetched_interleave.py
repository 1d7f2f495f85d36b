"""Only the C kernel writes the prefetched-line set.

On a C-kernel machine every add to the
:class:`~repro.memory.prefetched.PrefetchedSet` (a software or hardware
prefetch) and every discard (a demand hit in L2/L3 on a prefetched
line) happens in the kernel, whether a straight-line access runs inside
a lowered nest or through the walk's one-run plans.  Python only grows
the table before each call, shrinks it on a bust and reads it.  These
tests run straight-line programs on a fast and a reference machine over
lines that alias in the table's home slot and in every cache level's
set, with table growth and busts between runs: every counter and the
set contents must match after every run.
"""

from __future__ import annotations

import pytest

from repro.engine import ckernel
from repro.isa import ProgramBuilder
from repro.machine.machine import LoadedProgram
from repro.machine.presets import tiny_test_machine
from repro.memory.prefetched import _slot_of
from repro.oracle import diff_engine_sides

pytestmark = pytest.mark.skipif(not ckernel.available(),
                                reason="needs the C kernel")

#: byte offsets of four lines 1,024 lines apart: they alias in the
#: 1,024-slot table's home slot and in one set of every cache level
ALIAS = [k * 64 * 1024 for k in range(4)]
SPAN = ALIAS[-1] + 4096


def _program(ops, walked: bool = False):
    """A straight-line program over one ``data`` buffer.

    ``ops`` are ``(kind, offset, width_bits)``; ``walked`` wraps them in
    a loop holding a gather, which the nest executor refuses, so the
    walk sends each one through the kernel as a one-run plan or a
    single line instead of the nest kernel.
    """
    b = ProgramBuilder()
    data = b.buffer("data", SPAN)
    table = b.index_table("tab", [ALIAS[1] + 8, ALIAS[2] + 60])
    r = b.reg()

    def emit():
        for kind, offset, width in ops:
            if kind == "prefetch":
                b.prefetch(data[offset])
            elif kind == "flush":
                b.flush(data[offset])
            elif kind == "load":
                b.load(data[offset], width=width)
            else:
                b.store(r, data[offset], width=width, nt=kind == "ntstore")

    if walked:
        with b.loop(1):
            with b.loop(2) as i:
                b.gather(data, table[i], width=64)
            emit()
    else:
        emit()
    return b.build()


class Pair:
    """A fast (C-kernel) and a reference machine running the same
    programs over the same ``data`` buffer."""

    def __init__(self, prefetch_mask: int = 0) -> None:
        self.fast = tiny_test_machine()
        self.ref = tiny_test_machine(engine="reference")
        self.maps = []
        for machine in (self.fast, self.ref):
            machine.core(0)  # the fast one adopts the kernel's state
            machine.prefetch_control.write_msr(prefetch_mask)
            self.maps.append(machine.load(_program([])).buffer_map)
        assert self.fast.hierarchy.array_mode
        self.base_line = self.maps[0]["data"].base >> 6
        self.useful = 0

    @property
    def pf(self):
        return self.fast.hierarchy.port(0)._prefetched

    def line(self, offset: int) -> int:
        return self.base_line + offset // 64

    def run(self, ops, walked: bool = False) -> None:
        program = _program(ops, walked)
        fast_r, ref_r = (
            machine.run(LoadedProgram(program, buffers, 0)).result
            for machine, buffers in zip((self.fast, self.ref), self.maps))
        divs = diff_engine_sides(self.fast, fast_r, self.ref, ref_r, 0)
        assert not divs, "\n".join(str(d) for d in divs)
        self.useful = fast_r.batch.prefetch_useful
        self.check()

    def grow(self, extra: int) -> None:
        """Reallocate the table between kernel calls."""
        before = self.pf.slots
        assert self.pf.ensure_room(extra)
        assert self.pf.slots is not before
        self.check()

    def bust(self) -> None:
        self.fast.bust_caches()
        self.ref.bust_caches()
        assert len(self.pf.slots) == 1024
        self.check()

    def check(self) -> None:
        ref_pf = self.ref.hierarchy.port(0)._prefetched
        assert sorted(self.pf) == sorted(ref_pf)
        assert len(self.pf) == len(ref_pf)
        # each reachable by a probe from its home slot
        assert all(line in self.pf for line in ref_pf)
        for mine, ref in zip(self.fast.hierarchy.prefetchers_of(0),
                             self.ref.hierarchy.prefetchers_of(0)):
            assert mine.stats.as_dict() == ref.stats.as_dict()


@pytest.mark.parametrize("walked", [False, True], ids=["nest", "walk"])
def test_software_prefetch_adds_are_found_and_discarded_by_demand(walked):
    pair = Pair(prefetch_mask=0xF)  # no hardware prefetch: exact set
    # three aliasing prefetches: the 2-way L1 set keeps the last two,
    # the first stays in L2 and in the set, at the head of its cluster
    pair.run([("prefetch", off, 64) for off in ALIAS[:3]]
             + [("load", ALIAS[0], 64)], walked)
    assert pair.useful == 1  # the load hit the head in L2: discarded
    lines = [pair.line(off) for off in ALIAS]
    assert sorted(pair.pf) == lines[1:3]
    home = _slot_of(lines[0], len(pair.pf.slots) - 1)
    # the backward shift moved the cluster's tail up into the hole
    assert pair.pf.slots[home:home + 3].tolist() == [lines[1] + 1,
                                                      lines[2] + 1, 0]


def test_hardware_prefetch_adds_are_found_by_multi_line_accesses():
    pair = Pair()
    # the miss has the next-line engine add line + 1; the line-crossing
    # load then hits it in L2 through a one-run plan
    pair.run([("load", ALIAS[1], 64)], walked=True)
    assert pair.line(ALIAS[1]) + 1 in pair.pf
    pair.run([("load", ALIAS[1] + 64 + 48, 256)], walked=True)
    assert pair.useful > 0
    assert pair.line(ALIAS[1]) + 1 not in pair.pf


_PREFETCHES = [("prefetch", off, 64) for off in ALIAS]
_DEMANDS = [("load", ALIAS[0], 64), ("store", ALIAS[1] + 48, 256),
            ("load", ALIAS[2] + 8, 64), ("load", ALIAS[3] + 60, 128)]


def test_interleaving_survives_reallocation_and_clear():
    pair = Pair()
    pair.run(_PREFETCHES, walked=True)
    pair.grow(20_000)  # the kernel must follow the new table
    pair.run(_DEMANDS)
    pair.run(_PREFETCHES + [("prefetch", ALIAS[2] + 4096 - 4, 64)])
    pair.bust()  # shrinks the grown table back
    pair.run(_PREFETCHES[:3], walked=True)
    pair.grow(5_000)
    pair.run(_DEMANDS, walked=True)
    assert pair.useful > 0


hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

_OFFSET = st.sampled_from(sorted({off + d * 64 + b for off in ALIAS
                                  for d in range(3) for b in (0, 40, 60)}))

_INSTR = st.one_of(
    st.tuples(st.sampled_from(["prefetch", "flush"]), _OFFSET,
              st.just(64)),
    st.tuples(st.sampled_from(["load", "store", "ntstore"]), _OFFSET,
              st.sampled_from([64, 256])),
)

_STEP = st.one_of(
    st.tuples(st.just("run"), st.lists(_INSTR, min_size=1, max_size=8),
              st.booleans()),
    st.tuples(st.just("grow"), st.integers(min_value=600, max_value=9000)),
    st.tuples(st.just("bust")),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_STEP, min_size=1, max_size=10),
       st.sampled_from([0, 0x3, 0xF]))
def test_random_interleavings_match_the_reference(steps, mask):
    pair = Pair(prefetch_mask=mask)
    for step in steps:
        kind, args = step[0], step[1:]
        if kind == "grow":
            args = (len(pair.pf.slots) // 2 + args[0],)
        getattr(pair, kind)(*args)
