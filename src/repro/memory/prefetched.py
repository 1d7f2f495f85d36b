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
* ``touched`` — one byte per block of 512 slots, set when a slot in
  the block is written and cleared only with the table.  A snapshot,
  an iteration or a rehash reads only the touched blocks, so a table
  reserved for a large run (the cold buster's one flat loop reserves
  over a million slots) costs what its lines touched, not a scan that
  faults in every page of the reservation.  The kernel sets the byte
  in ``pf_add``; ``pf_discard`` writes only slots that held a line,
  whose blocks are touched already.
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

from ..errors import ConfigurationError

EMPTY = 0
_MULT = 0x9E3779B1
#: log2 of the slots per touched-map byte (``PF_BLOCK_SHIFT`` in the
#: kernel)
BLOCK_SHIFT = 9


def _slot_of(line: int, mask: int) -> int:
    return (line + (line >> 16) * _MULT) & mask


def _table(capacity: int) -> np.ndarray:
    """An empty slot table in a lazily zero-filled private mapping."""
    buf = mmap.mmap(-1, capacity * 8, flags=mmap.MAP_PRIVATE,
                    prot=mmap.PROT_READ | mmap.PROT_WRITE)
    return np.frombuffer(buf, dtype=np.int64)


def _touched_map(capacity: int) -> np.ndarray:
    return np.zeros(max(1, capacity >> BLOCK_SHIFT), dtype=np.uint8)


class PrefetchedSet:
    """Set of line numbers with storage shareable with the C kernel."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity & (capacity - 1):
            raise ValueError("capacity must be a power of two")
        self._initial = capacity
        self.slots = _table(capacity)
        self.touched = _touched_map(capacity)
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
        # A grown table is replaced: the C kernel's pointers are
        # refreshed by identity before every call (BatchDatapath._pre_call).
        if len(self.slots) > self._initial:
            self.slots = _table(self._initial)
            self.touched = _touched_map(self._initial)
            self._mask = self._initial - 1
        else:
            self.slots.fill(EMPTY)
            self.touched.fill(0)
        self.regs.fill(0)

    def _occupied(self) -> np.ndarray:
        """Indices of the occupied slots, ascending, read from the
        touched blocks only: one slice per run of adjacent blocks."""
        blocks = np.flatnonzero(self.touched)
        if not len(blocks):
            return blocks
        cuts = np.flatnonzero(np.diff(blocks) != 1) + 1
        starts = blocks[np.r_[0, cuts]] << BLOCK_SHIFT
        ends = (blocks[np.r_[cuts - 1, len(blocks) - 1]] + 1) << BLOCK_SHIFT
        return np.concatenate([np.flatnonzero(self.slots[lo:hi]) + lo
                               for lo, hi in zip(starts, ends)])

    def snapshot(self) -> tuple:
        """``(capacity, occupied slots, their keys, touched map)``: a
        compact copy that :meth:`restore` turns back into this exact
        table."""
        occupied = self._occupied()
        return (len(self.slots), occupied, self.slots[occupied],
                self.touched.copy())

    def restore(self, snapshot: tuple) -> None:
        """Put back the table of a :meth:`snapshot`: same capacity, every
        line in the same slot, the same touched blocks.  The arrays are
        replaced (the datapath re-points by identity); ``regs`` is
        written in place."""
        capacity, occupied, keys, touched = snapshot
        self.slots = _table(capacity)
        self.slots[occupied] = keys
        self.touched = touched.copy()
        self._mask = capacity - 1
        self.regs[0] = len(occupied)

    def __iter__(self):
        for v in self.slots[self._occupied()].tolist():
            yield v - 1

    def ensure_room(self, extra: int) -> bool:
        """Grow so that ``extra`` more inserts keep load factor <= 1/2.

        Returns True when the slot array was reallocated (callers caching
        the raw pointer must refresh it).  A grown table the host cannot
        map raises :class:`ConfigurationError`.
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
        try:
            fresh = _table(target)
        except OSError as exc:
            raise ConfigurationError(
                f"the prefetched-line table needs {target} slots "
                f"({target * 8} bytes), which host memory cannot map: "
                f"{exc.strerror or exc}") from exc
        live = list(self)
        touched = _touched_map(target)
        mask = target - 1
        for line in live:
            i = _slot_of(line, mask)
            while fresh[i] != EMPTY:
                i = (i + 1) & mask
            fresh[i] = line + 1
            touched[i >> BLOCK_SHIFT] = 1
        self.slots = fresh
        self.touched = touched
        self._mask = mask
