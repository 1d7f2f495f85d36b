"""PrefetchedSet: the open-addressing line set shared with the C kernel.

A hypothesis state machine drives the table against a builtin ``set``
through add, discard, membership, ``ensure_room``, growth and clear, on
a deliberately small table and a line pool built to collide: lines that
alias modulo the capacity, clusters that wrap past the last slot, lines
whose high bits fold into the slot, and deletes from the middle of a
cluster.  After every step the table must also keep the linear-probing
invariant that backward-shift deletion maintains: every stored line is
reachable from its home slot without crossing an empty slot.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.memory.prefetched import PrefetchedSet, _slot_of

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine, invariant, precondition, rule,
)

SMALL = 16

#: home slots near the end of a 16-slot table (clusters wrap past slot
#: 15), repeated every 16 lines (aliases), plus the same low bits in
#: other 64K-line blocks (the high-bit fold moves their home slot)
POOL = sorted({
    block * (1 << 16) + k * SMALL + r
    for block in (0, 1, 7)
    for k in range(4)
    for r in (13, 14, 15, 0, 1)
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


class PrefetchedSetMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.pf = PrefetchedSet(capacity=SMALL)
        self.model: set = set()

    @rule(line=st.sampled_from(POOL))
    def add(self, line):
        self.pf.add(line)
        self.model.add(line)

    @rule(line=st.sampled_from(POOL))
    def discard_any(self, line):
        self.pf.discard(line)
        self.model.discard(line)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def discard_member(self, data):
        line = data.draw(st.sampled_from(sorted(self.model)))
        self.pf.discard(line)
        self.model.discard(line)

    @rule(line=st.sampled_from(POOL))
    def contains(self, line):
        assert (line in self.pf) == (line in self.model)

    @rule(extra=st.integers(min_value=0, max_value=70))
    def ensure_room(self, extra):
        before = self.pf.slots
        grew = self.pf.ensure_room(extra)
        assert grew == (self.pf.slots is not before)
        assert (len(self.pf) + extra) * 2 <= len(self.pf.slots)

    @rule()
    def clear(self):
        self.pf.clear()
        self.model.clear()
        assert len(self.pf.slots) == SMALL

    @invariant()
    def agrees_with_set(self):
        assert len(self.pf) == len(self.model)
        assert sorted(self.pf) == sorted(self.model)
        assert np.count_nonzero(self.pf.slots) == len(self.model)
        assert len(self.pf) * 2 <= len(self.pf.slots)
        assert _reachable(self.pf)


PrefetchedSetMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=60, deadline=None)
TestPrefetchedSetMachine = PrefetchedSetMachine.TestCase


def test_delete_from_cluster_middle_keeps_the_tail_reachable():
    pf = PrefetchedSet(capacity=SMALL)
    # four lines homed at slot 15: the cluster wraps to slots 0..2
    lines = [15 + k * SMALL for k in range(4)]
    for line in lines:
        pf.add(line)
    assert pf.slots[15] == lines[0] + 1 and pf.slots[2] == lines[3] + 1
    pf.discard(lines[1])
    assert [line in pf for line in lines] == [True, False, True, True]
    # the shift pulled the tail back: no hole, and the last slot freed
    assert pf.slots[2] == 0
    assert _reachable(pf)


def test_consecutive_lines_take_consecutive_slots():
    pf = PrefetchedSet()
    for line in range(1000, 1008):
        pf.add(line)
    home = _slot_of(1000, len(pf.slots) - 1)
    assert pf.slots[home:home + 8].tolist() == list(range(1001, 1009))


def test_add_discard_cycles_never_grow_the_table():
    pf = PrefetchedSet()
    for line in range(100_000):
        pf.add(line)
        pf.discard(line)
    assert len(pf) == 0
    assert len(pf.slots) == 1024


def test_clear_shrinks_a_grown_table():
    pf = PrefetchedSet()
    assert pf.ensure_room(10_000)
    assert len(pf.slots) >= 20_000
    pf.add(7)
    for line in range(3000):
        pf.add(line * 1024)
    pf.clear()
    assert len(pf.slots) == 1024
    assert len(pf) == 0 and 7 not in pf and 0 not in pf


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork()")
def test_a_forked_child_writes_its_own_copy_of_the_table():
    pf = PrefetchedSet()
    pf.add(5)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: mutate the inherited table, report, exit
        ok = False
        try:
            pf.discard(5)
            pf.add(9)
            ok = 5 not in pf and 9 in pf
        finally:
            os.write(write, b"1" if ok else b"0")
            os._exit(0)
    os.close(write)
    assert os.read(read, 1) == b"1"
    os.close(read)
    os.waitpid(pid, 0)
    assert 5 in pf and 9 not in pf
    assert pf.slots.tolist().count(0) == len(pf.slots) - 1
