"""Open-addressing int64 hash set for prefetched-line tracking.

``CorePort`` tracks the set of lines brought in by hardware/software
prefetch that have not yet been touched by demand.  On array-backend
machines the compiled datapath kernel probes and mutates this set
millions of times per batch, so the storage is a flat numpy slot array
shared with C rather than a Python ``set``.  The kernel is the table's
only writer: it performs every add and discard, and Python keeps
membership, iteration, growth and ``clear``.

Layout (shared with ``engine/_ckernel.c``):

* ``slots`` — power-of-two table holding ``line + 1`` per resident line
  (lines are >= 0); ``0`` = empty.  Each table is its own private
  anonymous mapping, whose pages the OS maps zero-filled on first touch
  and takes back when the table is dropped, so a large reservation costs
  only the pages actually used.  Private, like any heap array: a forked
  child (a pool worker) gets a copy-on-write view, never shared memory.
  (``np.zeros`` does not promise that: once glibc's adaptive mmap
  threshold has risen past a freed table's size, the next table comes
  from the heap and is memset in full.)
* ``regs`` — ``[size]``.

The home slot of a line is ``(line + (line >> 16) * 0x9E3779B1) & mask``:
consecutive lines land in consecutive slots, so a prefetch stream
touches one host cache line per eight adds, while the folded high bits
spread arrays whose lines alias modulo the capacity.  Probing is linear
and the kernel's deletion shifts later cluster members back into the
hole (Knuth's Algorithm R), so there are no tombstones and the load is
the size alone.  :meth:`PrefetchedSet.__contains__` and the rehash in
``_grow`` use the identical slot function.  Growth happens only here
(``ensure_room`` before each kernel call), so C never rehashes;
``clear`` shrinks a grown table back to its initial capacity.
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

    def clear(self) -> None:
        # A grown table is replaced: the C kernel's pointer is refreshed
        # by identity before every call (BatchDatapath._pre_call).
        if len(self.slots) > self._initial:
            self.slots = _table(self._initial)
            self._mask = self._initial - 1
        else:
            self.slots.fill(EMPTY)
        self.regs.fill(0)

    def snapshot(self) -> tuple:
        """``(capacity, occupied slots, their keys)``: a compact copy
        that :meth:`restore` turns back into this exact table."""
        occupied = np.flatnonzero(self.slots)
        return len(self.slots), occupied, self.slots[occupied]

    def restore(self, snapshot: tuple) -> None:
        """Put back the table of a :meth:`snapshot`: same capacity, every
        line in the same slot.  The slot array is replaced (the datapath
        re-points by identity); ``regs`` is written in place."""
        capacity, occupied, keys = snapshot
        self.slots = _table(capacity)
        self.slots[occupied] = keys
        self._mask = capacity - 1
        self.regs[0] = len(occupied)

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

    def _grow(self, minimum: int) -> None:
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
