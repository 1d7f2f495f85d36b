"""PrefetchedSet: the open-addressing line set the C kernel writes.

The kernel performs every add (a software or hardware prefetch) and
every discard (a demand hit in L2/L3 on a prefetched line); Python keeps
membership, iteration, growth and ``clear``.  A hypothesis state machine
drives a kernel port through straight-line prefetches and demand
accesses, table growth and busts, with a dict-state reference port as
the model, on a line pool built to collide in the 1,024-slot table:
lines that alias modulo the capacity, clusters that wrap past the last
slot, and lines whose high bits fold into the slot.  After every step
the table must also keep the linear-probing invariant that the
kernel's backward-shift deletion maintains: every stored line is
reachable from its home slot without crossing an empty slot; and every
occupied slot must lie in a block the touched map marks, since
iteration, snapshots and rehashes read only those blocks.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.engine import ckernel
from repro.engine.datapath import BatchDatapath
from repro.engine.plan import AccessPlan
from repro.machine.presets import tiny_test_machine
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.prefetched import (
    _MULT, BLOCK_SHIFT, PrefetchedSet, _slot_of,
)

pytestmark = pytest.mark.skipif(not ckernel.available(),
                                reason="the C kernel writes the set")

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine, invariant, rule,
)

SLOTS = 1024

#: home slots around the end of the table (clusters wrap past the last
#: slot), four aliases each, in three 64K-line blocks whose high bits
#: fold into the slot
POOL = sorted({
    (block << 16) + k * SLOTS + ((home - block * _MULT) & (SLOTS - 1))
    for block in (0, 1, 7)
    for k in range(4)
    for home in (SLOTS - 3, SLOTS - 2, SLOTS - 1, 0, 1)
})


def _reachable(pf: PrefetchedSet) -> bool:
    slots, mask = pf.slots, len(pf.slots) - 1
    for i, v in enumerate(slots.tolist()):
        if not v:
            continue
        j = _slot_of(v - 1, mask)
        while j != i:
            if not slots[j]:
                return False
            j = (j + 1) & mask
    return True


class Pair:
    """Core 0 of a kernel hierarchy and of a dict-state reference
    hierarchy, driven through the same straight-line accesses."""

    def __init__(self, engines=("nextline", "stream", "stride")) -> None:
        spec = tiny_test_machine().spec
        self.hier = MemoryHierarchy(spec.hierarchy, spec.topology,
                                    array=True)
        self.ref_hier = MemoryHierarchy(spec.hierarchy, spec.topology)
        for hier in (self.hier, self.ref_hier):
            hier.prefetch_control.disable_all()
            for kind in engines:
                hier.prefetch_control.enable(kind)
        self.port = self.hier.port(0)
        self.ref = self.ref_hier.port(0)
        self.dp = BatchDatapath(self.port)

    @property
    def pf(self) -> PrefetchedSet:
        return self.port._prefetched

    def prefetch(self, lines) -> None:
        """Software prefetches, one straight-line run."""
        self.dp.execute_plan(AccessPlan.one_run("prefetch", list(lines),
                                                0, 0))
        self.ref.software_prefetch(lines)

    def demand(self, line: int, is_write: bool = False) -> None:
        """One demand line through the kernel's single-line entry."""
        self.dp.execute_single(line, is_write, None)
        self.ref.access_lines([line], is_write)

    def demand_run(self, lines, is_write: bool = False) -> None:
        """Demand lines as one straight-line run."""
        self.dp.execute_plan(AccessPlan.one_run(
            "store" if is_write else "load", list(lines), 0, 0))
        self.ref.access_lines(lines, is_write)

    def bust(self) -> None:
        self.hier.bust()
        self.ref_hier.bust()

    def check(self) -> None:
        assert sorted(self.pf) == sorted(self.ref._prefetched)
        assert len(self.pf) == len(self.ref._prefetched)
        assert (dataclasses.asdict(self.port.totals)
                == dataclasses.asdict(self.ref.totals))
        for level in ("l1", "l2", "l3"):
            assert (dataclasses.asdict(getattr(self.port, level).stats)
                    == dataclasses.asdict(getattr(self.ref, level).stats))
        for mine, ref in zip(self.hier.prefetchers_of(0),
                             self.ref_hier.prefetchers_of(0)):
            assert mine.stats.as_dict() == ref.stats.as_dict()


_LINES = st.lists(st.sampled_from(POOL), min_size=1, max_size=4)


class PrefetchedSetMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.pair = Pair()

    @rule(lines=_LINES)
    def prefetch(self, lines):
        self.pair.prefetch(lines)

    @rule(line=st.sampled_from(POOL), is_write=st.booleans())
    def demand(self, line, is_write):
        self.pair.demand(line, is_write)

    @rule(lines=_LINES, is_write=st.booleans())
    def demand_run(self, lines, is_write):
        self.pair.demand_run(lines, is_write)

    @rule(line=st.sampled_from(POOL))
    def contains(self, line):
        assert (line in self.pair.pf) == (line in self.pair.ref._prefetched)

    @rule(extra=st.integers(min_value=0, max_value=3000))
    def ensure_room(self, extra):
        pf = self.pair.pf
        before = pf.slots
        grew = pf.ensure_room(extra)
        assert grew == (pf.slots is not before)
        assert (len(pf) + extra) * 2 <= len(pf.slots)

    @rule()
    def bust(self):
        self.pair.bust()
        assert len(self.pair.pf.slots) == SLOTS

    @invariant()
    def agrees_with_the_reference(self):
        pf = self.pair.pf
        self.pair.check()
        assert np.count_nonzero(pf.slots) == len(pf)
        assert len(pf) * 2 <= len(pf.slots)
        assert _reachable(pf)

    @invariant()
    def occupied_slots_lie_in_touched_blocks(self):
        pf = self.pair.pf
        occupied = np.flatnonzero(pf.slots)
        assert pf.touched[occupied >> BLOCK_SHIFT].all()
        assert np.array_equal(pf._occupied(), occupied)


PrefetchedSetMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None)
TestPrefetchedSetMachine = PrefetchedSetMachine.TestCase


def test_delete_from_cluster_middle_keeps_the_tail_reachable():
    pair = Pair(engines=())
    # four lines homed at the last slot: the cluster wraps to slots 0..2;
    # they share one set at every level, so the 2-way L1 keeps the last
    # two and the first two stay in L2 only
    lines = [SLOTS - 1 + k * SLOTS for k in range(4)]
    pair.prefetch(lines)
    pf = pair.pf
    assert pf.slots[SLOTS - 1] == lines[0] + 1 and pf.slots[2] == lines[3] + 1
    pair.demand(lines[1])  # an L2 hit: the kernel discards it
    pair.check()
    assert [line in pf for line in lines] == [True, False, True, True]
    # the shift pulled the tail back: no hole, and the last slot freed
    assert pf.slots[2] == 0
    assert _reachable(pf)


def test_consecutive_lines_take_consecutive_slots():
    pair = Pair(engines=())
    pair.prefetch(range(1000, 1008))
    pf = pair.pf
    home = _slot_of(1000, len(pf.slots) - 1)
    assert pf.slots[home:home + 8].tolist() == list(range(1001, 1009))


def test_add_discard_cycles_never_grow_the_table():
    # each demand miss has the next-line engine add the following line,
    # which the next demand hits in L2 and discards; only a page's first
    # line misses (the engine stays within a page)
    pair = Pair(engines=("nextline",))
    for start in range(0, 100_000, 50):
        pair.demand_run(range(start, start + 50))
    pair.check()
    assert pair.port.totals.prefetch_useful == 100_000 - -(-100_000 // 64)
    assert list(pair.pf) == [100_000]
    assert len(pair.pf.slots) == SLOTS


def test_clear_shrinks_a_grown_table():
    pair = Pair(engines=())
    pf = pair.pf
    assert pf.ensure_room(10_000)
    assert len(pf.slots) >= 20_000
    pair.prefetch([7] + [line * SLOTS for line in range(3000)])
    assert len(pf) == 3001
    pair.bust()
    assert len(pf.slots) == SLOTS
    assert len(pf) == 0 and 7 not in pf and 0 not in pf
    pair.prefetch([9])  # the kernel follows the new, smaller table
    pair.check()
    assert list(pf) == [9]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork()")
def test_a_forked_child_writes_its_own_copy_of_the_table():
    pair = Pair(engines=())
    aliases = [5 + k * SLOTS for k in range(3)]
    pair.prefetch(aliases)  # the 2-way L1 keeps the last two
    pf = pair.pf
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: the kernel discards 5 and adds 9, report, exit
        ok = False
        try:
            pair.dp.execute_single(5, False, None)
            pair.dp.execute_plan(AccessPlan.one_run("prefetch", [9], 0, 0))
            ok = 5 not in pf and 9 in pf
        finally:
            os.write(write, b"1" if ok else b"0")
            os._exit(0)
    os.close(write)
    assert os.read(read, 1) == b"1"
    os.close(read)
    os.waitpid(pid, 0)
    assert 5 in pf and 9 not in pf
    assert sorted(pf) == aliases
    assert np.count_nonzero(pf.slots) == len(aliases)


def test_snapshot_restore_round_trips_a_table_grown_past_2_21_slots():
    pair = Pair(engines=())
    pf = pair.pf
    assert pf.ensure_room((1 << 20) + 1)
    assert len(pf.slots) > 1 << 21
    # lines spread over the table: far-apart blocks, and aliases that
    # cluster in one
    lines = [k * 40_009 for k in range(1, 200)] + [7 + k * SLOTS
                                                   for k in range(8)]
    pair.prefetch(lines)
    pair.demand(lines[3])  # an L2 hit: the kernel discards it
    slots, touched, size = pf.slots.copy(), pf.touched.copy(), len(pf)
    saved = pf.snapshot()
    pair.prefetch([11, 12, 13])
    pair.bust()
    assert len(pf) == 0 and len(pf.slots) == SLOTS
    pf.restore(saved)
    assert np.array_equal(pf.slots, slots)
    assert np.array_equal(pf.touched, touched)
    assert len(pf) == size
    assert sorted(pf) == sorted((slots[slots != 0] - 1).tolist())
    pair.prefetch([5])  # the kernel follows the restored table
    assert 5 in pf and len(pf) == size + 1
