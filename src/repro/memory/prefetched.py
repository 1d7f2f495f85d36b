"""Open-addressing int64 hash set for prefetched-line tracking.

``CorePort`` tracks the set of lines brought in by hardware/software
prefetch that have not yet been touched by demand.  On array-backend
machines the compiled datapath kernel needs to probe and mutate this
set millions of times per batch, so the storage is a flat numpy slot
array shared with C rather than a Python ``set``.

Layout (shared with ``engine/_ckernel.c``):

* ``slots`` — power-of-two table holding ``line + 1`` per resident line
  (lines are >= 0); ``0`` = empty.  Each table is its own private
  anonymous mapping, whose pages the OS maps zero-filled on first touch
  and takes back when the table is dropped, so a large reservation costs
  only the pages actually used.  Private, like any heap array: a forked
  child (a pool worker) gets a copy-on-write view, never shared memory.  (``np.zeros`` does not promise that: once
  glibc's adaptive mmap threshold has risen past a freed table's size,
  the next table comes from the heap and is memset in full.)
* ``regs`` — ``[size]``.

The home slot of a line is ``(line + (line >> 16) * 0x9E3779B1) & mask``:
consecutive lines land in consecutive slots, so a prefetch stream
touches one host cache line per eight adds, while the folded high bits
spread arrays whose lines alias modulo the capacity.  Probing is linear
and deletion shifts later cluster members back into the hole (Knuth's
Algorithm R), so there are no tombstones and the load is the size alone.
The C side implements the identical slot function and deletion rule, so
both can interleave freely on the same table.  Growth happens only on
the Python side (``ensure_room`` before each kernel call), so C never
rehashes; ``clear`` shrinks a grown table back to its initial capacity.
"""

from __future__ import annotations

import mmap

import numpy as np

EMPTY = 0
_MULT = 0x9E3779B1


def _slot_of(line: int, mask: int) -> int:
    return (line + (line >> 16) * _MULT) & mask


def _table(capacity: int) -> np.ndarray:
    """An empty slot table in a lazily zero-filled private mapping."""
    buf = mmap.mmap(-1, capacity * 8, flags=mmap.MAP_PRIVATE,
                    prot=mmap.PROT_READ | mmap.PROT_WRITE)
    return np.frombuffer(buf, dtype=np.int64)


class PrefetchedSet:
    """Set of line numbers with storage shareable with the C kernel."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity & (capacity - 1):
            raise ValueError("capacity must be a power of two")
        self._initial = capacity
        self.slots = _table(capacity)
        self.regs = np.zeros(1, dtype=np.int64)  # [size]
        self._mask = capacity - 1

    def __len__(self) -> int:
        return int(self.regs[0])

    def _find(self, line: int) -> int:
        """Slot holding ``line``, or the empty slot ending its probe."""
        slots, mask, key = self.slots, self._mask, line + 1
        i = _slot_of(line, mask)
        while True:
            v = slots[i]
            if v == key or v == EMPTY:
                return i
            i = (i + 1) & mask

    def __contains__(self, line: int) -> bool:
        return bool(self.slots[self._find(line)])

    def add(self, line: int) -> None:
        i = self._find(line)
        if self.slots[i]:
            return
        self.slots[i] = line + 1
        self.regs[0] += 1
        if self.regs[0] * 2 > len(self.slots):
            self._grow()

    def discard(self, line: int) -> None:
        slots, mask = self.slots, self._mask
        i = self._find(line)
        if not slots[i]:
            return
        # backward shift: move each later member of the cluster whose
        # home slot is not cyclically in (i, j] into the hole at i
        j = i
        while True:
            j = (j + 1) & mask
            v = int(slots[j])
            if v == EMPTY:
                break
            if (j - _slot_of(v - 1, mask)) & mask >= (j - i) & mask:
                slots[i] = v
                i = j
        slots[i] = EMPTY
        self.regs[0] -= 1

    def clear(self) -> None:
        # A grown table is replaced: the C kernel's pointer is refreshed
        # by identity before every call (BatchDatapath._pre_call).
        if len(self.slots) > self._initial:
            self.slots = _table(self._initial)
            self._mask = self._initial - 1
        else:
            self.slots.fill(EMPTY)
        self.regs.fill(0)

    def __iter__(self):
        for v in self.slots[self.slots != EMPTY].tolist():
            yield v - 1

    def ensure_room(self, extra: int) -> bool:
        """Grow so that ``extra`` more inserts keep load factor <= 1/2.

        Returns True when the slot array was reallocated (callers caching
        the raw pointer must refresh it).
        """
        need = int(self.regs[0]) + extra
        if need * 2 <= len(self.slots):
            return False
        self._grow(minimum=need * 2)
        return True

    def _grow(self, minimum: int = 0) -> None:
        target = len(self.slots) * 2
        while target < minimum:
            target *= 2
        live = list(self)
        fresh = _table(target)
        mask = target - 1
        for line in live:
            i = _slot_of(line, mask)
            while fresh[i] != EMPTY:
                i = (i + 1) & mask
            fresh[i] = line + 1
        self.slots = fresh
        self._mask = mask
