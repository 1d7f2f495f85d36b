"""Array-state prefetcher variants for the compiled datapath.

These subclasses keep every piece of mutable training state in int64
numpy arrays that the C datapath kernel (:mod:`repro.engine.ckernel`)
trains in place; the kernel is their only writer.  Python keeps the
stats, the in-place :meth:`reset` and the arrays for inspection, and
``observe`` raises instead of falling back to the dict parent's tables.
The kernel reproduces the dict-table parents exactly: recency is a
monotone tick stamped per entry, and the eviction victim is the valid
entry with the smallest stamp — the ``min(..., key=lru_tick)`` of the
dict implementation (ticks are unique, so there are no ties).

Array layout (shared with ``engine/_ckernel.c``):

* ``keys`` — stream-id / page key per slot, -1 = empty (valid because
  site ids and page numbers are non-negative).
* per-slot state columns (``last``, ``strd``/``dirn``, ``conf``,
  ``front``) mirroring the dataclass fields.
* ``lruv`` — recency stamp per slot.
* ``regs`` — ``[tick, entry_count]``.

``NextLinePrefetcher`` is stateless and needs no array variant.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import ExecutionError
from .stream import StreamPrefetcher
from .stride import StridePrefetcher

EMPTY = -1


def _kernel_owned(self, line: int, was_miss: bool,
                  stream_id: int = 0) -> List[int]:
    raise ExecutionError(
        f"{self.kind} prefetcher: array-backed training state is written "
        "only by the C kernel"
    )


class ArrayStridePrefetcher(StridePrefetcher):
    """:class:`StridePrefetcher` with numpy-backed site table."""

    observe = _kernel_owned

    def __init__(self, sites: int = 64, degree: int = 2,
                 confidence_threshold: int = 2, max_stride: int = 512) -> None:
        super().__init__(sites, degree, confidence_threshold, max_stride)
        self.keys = np.full(sites, EMPTY, dtype=np.int64)
        self.last = np.zeros(sites, dtype=np.int64)
        self.strd = np.zeros(sites, dtype=np.int64)
        self.conf = np.zeros(sites, dtype=np.int64)
        self.lruv = np.zeros(sites, dtype=np.int64)
        self.regs = np.zeros(2, dtype=np.int64)  # [tick, count]

    def reset(self) -> None:
        # In place: the C kernel holds raw pointers to these arrays.
        self.stats.reset()
        self.keys.fill(EMPTY)
        self.last.fill(0)
        self.strd.fill(0)
        self.conf.fill(0)
        self.lruv.fill(0)
        self.regs.fill(0)


class ArrayStreamPrefetcher(StreamPrefetcher):
    """:class:`StreamPrefetcher` with numpy-backed page-tracker table."""

    observe = _kernel_owned

    def __init__(self, trackers: int = 16, degree: int = 2,
                 distance: int = 8, confidence_threshold: int = 2,
                 lines_per_page: int = 64) -> None:
        super().__init__(trackers, degree, distance, confidence_threshold,
                         lines_per_page)
        self.keys = np.full(trackers, EMPTY, dtype=np.int64)
        self.last = np.zeros(trackers, dtype=np.int64)
        self.dirn = np.zeros(trackers, dtype=np.int64)
        self.conf = np.zeros(trackers, dtype=np.int64)
        self.front = np.zeros(trackers, dtype=np.int64)
        self.lruv = np.zeros(trackers, dtype=np.int64)
        self.regs = np.zeros(2, dtype=np.int64)  # [tick, count]

    def reset(self) -> None:
        self.stats.reset()
        self.keys.fill(EMPTY)
        self.last.fill(0)
        self.dirn.fill(0)
        self.conf.fill(0)
        self.front.fill(0)
        self.lruv.fill(0)
        self.regs.fill(0)
