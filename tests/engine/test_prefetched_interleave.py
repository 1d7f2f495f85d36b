"""The C kernel and the Python port share one prefetched-line set.

On a C-kernel machine the kernel's demand path and the Python port
paths (``software_prefetch``, multi-line ``access_lines``) add and
remove lines in the same :class:`~repro.memory.prefetched.PrefetchedSet`
table, so the two sides must implement its home-slot function and its
backward-shift deletion bit for bit.  These tests interleave both sides
on one port, with lines that alias modulo the table capacity and a
reallocating ``ensure_room`` between calls, and replay the same
operations on a dict-state reference port: every counter and the set
contents must match after every step, and lines one side added must be
found, counted useful and removed by the other.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine import ckernel
from repro.engine.datapath import BatchDatapath
from repro.machine.presets import tiny_test_machine
from repro.memory.hierarchy import MemoryHierarchy

pytestmark = pytest.mark.skipif(not ckernel.available(),
                                reason="needs the C kernel")

#: lines of the 1,024-slot initial table's home slot 5: they alias
#: there, and in set 5 of every tiny-machine cache level
ALIAS = [5 + k * 1024 for k in range(4)]


class Pair:
    """A C-kernel port and a dict-state reference port, driven alike."""

    def __init__(self) -> None:
        spec = tiny_test_machine().spec
        self.c_hier = MemoryHierarchy(spec.hierarchy, spec.topology)
        assert self.c_hier.adopt_array_backend()
        self.c_port = self.c_hier.port(0)
        self.dp = BatchDatapath(self.c_port)
        self.ref_hier = MemoryHierarchy(spec.hierarchy, spec.topology)
        self.ref_port = self.ref_hier.port(0)

    @property
    def pf(self):
        return self.c_port._prefetched

    def sw(self, lines) -> None:
        """Python-side software prefetch (adds to the set)."""
        self.c_port.software_prefetch(lines)
        self.ref_port.software_prefetch(lines)
        self.check()

    def py(self, lines, is_write: bool = False) -> None:
        """Python-side multi-line demand (finds, discards and adds)."""
        self.c_port.access_lines(lines, is_write)
        self.ref_port.access_lines(lines, is_write)
        self.check()

    def c(self, line: int, is_write: bool = False) -> None:
        """One demand line through the C kernel."""
        self.dp.execute_single(line, is_write, None)
        self.ref_port.access_lines([line], is_write)
        self.check()

    def grow(self, extra: int) -> None:
        """Reallocate the shared table between kernel calls."""
        before = self.pf.slots
        assert self.pf.ensure_room(extra)
        assert self.pf.slots is not before
        self.check()

    def bust(self) -> None:
        self.c_hier.bust()
        self.ref_hier.bust()
        self.check()

    def check(self) -> None:
        assert sorted(self.pf) == sorted(self.ref_port._prefetched)
        assert len(self.pf) == len(self.ref_port._prefetched)
        assert (dataclasses.asdict(self.c_port.totals)
                == dataclasses.asdict(self.ref_port.totals))
        for level in ("l1", "l2", "l3"):
            assert (dataclasses.asdict(getattr(self.c_port, level).stats)
                    == dataclasses.asdict(getattr(self.ref_port, level).stats))
        for mine, ref in zip(self.c_hier.prefetchers_of(0),
                             self.ref_hier.prefetchers_of(0)):
            assert mine.stats.as_dict() == ref.stats.as_dict()

    @property
    def useful(self) -> int:
        return self.c_port.totals.prefetch_useful


def test_python_adds_are_found_and_discarded_by_the_kernel():
    pair = Pair()
    # three aliasing lines prefetched from Python: the 2-way L1 set
    # keeps the last two, the first stays in L2 and in the set
    pair.sw(ALIAS[:3])
    assert set(pair.pf) == set(ALIAS[:3])
    assert pair.pf.slots[5] == ALIAS[0] + 1  # the cluster's head
    before = pair.useful
    pair.c(ALIAS[0])  # L1 miss, L2 hit: the kernel deletes the head
    assert pair.useful == before + 1
    assert ALIAS[0] not in pair.pf
    assert ALIAS[1] in pair.pf and ALIAS[2] in pair.pf


def test_kernel_adds_are_found_and_discarded_by_python():
    pair = Pair()
    pair.c(ALIAS[0])  # demand miss: next-line prefetch of ALIAS[0] + 1
    assert ALIAS[0] + 1 in pair.pf
    pair.sw(ALIAS[1:3])  # Python adds aliasing the kernel's home slot 5
    before = pair.useful
    pair.py([ALIAS[0] + 1, ALIAS[0]])  # L2 hit on the kernel's line
    assert pair.useful > before
    assert ALIAS[0] + 1 not in pair.pf


def test_interleaving_survives_reallocation_and_clear():
    pair = Pair()
    pair.sw(ALIAS)
    pair.c(ALIAS[1])
    pair.grow(20_000)  # the kernel must follow the new table
    pair.py([ALIAS[0], 64, 65])
    for line in ALIAS + [ALIAS[0] + 1, 66, 67, 68]:
        pair.c(line)
    pair.sw([ALIAS[2] + 2048, 5 + (1 << 16)])
    pair.bust()  # shrinks the grown table back
    assert len(pair.pf.slots) == 1024
    pair.sw(ALIAS[:3])
    pair.c(ALIAS[0])
    pair.grow(5_000)
    pair.py(ALIAS)
    assert pair.useful > 0


hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

_LINE = st.sampled_from(
    sorted({base + k * 1024 + d
            for base in (5, 1023, 5 + (3 << 16))
            for k in range(3) for d in (0, 1, 2)}))

_OP = st.one_of(
    st.tuples(st.just("sw"), st.lists(_LINE, min_size=1, max_size=4)),
    st.tuples(st.just("py"), st.lists(_LINE, min_size=2, max_size=4),
              st.booleans()),
    st.tuples(st.just("c"), _LINE, st.booleans()),
    st.tuples(st.just("grow"), st.integers(min_value=600, max_value=9000)),
    st.tuples(st.just("bust")),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_OP, min_size=1, max_size=40))
def test_random_interleavings_match_the_reference(ops):
    pair = Pair()
    for op in ops:
        kind, args = op[0], op[1:]
        if kind == "grow":
            args = (len(pair.pf.slots) // 2 + args[0],)
        getattr(pair, kind)(*args)
