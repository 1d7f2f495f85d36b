"""Set-associative, write-back cache model at cache-line granularity.

The cache is *functional*: it tracks which lines are resident and dirty,
and produces exact hit/miss/eviction streams.  Timing is attributed by
the core's cycle model (:mod:`repro.cpu.core`), not here.

Three internal representations are used:

* ``dict`` — an ordered-dict fast path for LRU (the common case on
  every preset — Python dicts preserve insertion order, giving O(1)
  recency updates); the state of every machine without the C kernel.
* ``ways`` — a generic ways-list representation driven by a
  :class:`~repro.memory.replacement.ReplacementPolicy` for the
  replacement-policy ablation.
* ``array`` — numpy tag/dirty arrays (LRU only) shared with the
  compiled datapath kernel, which is their only writer: the transitions
  below raise on this backend, while inspection and :meth:`Cache.clear`
  stay available.  Each set is kept in recency order, the dict's order
  reversed: way 0 holds the most recent line, and the valid ways form a
  prefix (-1 marks the empty ways after it).  Its equivalence with the dict backend is the
  cross-engine gate's (``docs/ENGINE.md``).

The dict and ways representations expose identical behaviour, which
the property-based tests verify against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, ExecutionError
from ..obs.spans import SPANS
from ..units import is_power_of_two, log2_int
from .replacement import ReplacementPolicy, make_policy


@dataclass
class CacheStats:
    """Cumulative event counts since construction or :meth:`reset`."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.invalidations = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and behaviour of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int = 64
    assoc: int = 8
    policy: str = "lru"
    latency_cycles: int = 4
    bytes_per_cycle: float = 32.0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.assoc <= 0:
            raise ConfigurationError(f"{self.name}: non-positive geometry")
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"line*assoc ({self.line_bytes}*{self.assoc})"
            )
        nsets = self.size_bytes // (self.line_bytes * self.assoc)
        if not is_power_of_two(nsets):
            raise ConfigurationError(
                f"{self.name}: set count {nsets} must be a power of two"
            )

    @property
    def nsets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)

    @property
    def nlines(self) -> int:
        return self.size_bytes // self.line_bytes

    def scaled(self, factor: float) -> "CacheConfig":
        """Geometry scaled by ``factor`` (keeps line size and assoc).

        Used by experiment presets to shrink machines so DRAM-resident
        working sets stay simulation-friendly; documented in DESIGN.md.
        """
        lines = max(int(self.nlines * factor), self.assoc)
        nsets = 1 << max((lines // self.assoc).bit_length() - 1, 0)
        size = nsets * self.assoc * self.line_bytes
        return CacheConfig(
            self.name,
            size,
            self.line_bytes,
            self.assoc,
            self.policy,
            self.latency_cycles,
            self.bytes_per_cycle,
        )


class Cache:
    """One cache level; see module docstring for design notes."""

    def __init__(self, config: CacheConfig,
                 policy: Optional[ReplacementPolicy] = None,
                 backend: Optional[str] = None) -> None:
        self.config = config
        self.stats = CacheStats()
        self._set_mask = config.nsets - 1
        self._assoc = config.assoc
        self._resident = 0
        if backend is None:
            backend = (
                "dict" if policy is None and config.policy == "lru"
                else "ways"
            )
        if backend not in ("dict", "ways", "array"):
            raise ConfigurationError(
                f"{config.name}: unknown cache backend {backend!r}; "
                "choose from ['dict', 'ways', 'array']"
            )
        self._backend = backend
        self._fast = backend == "dict"
        if backend != "ways" and (policy is not None
                                  or config.policy != "lru"):
            raise ConfigurationError(
                f"{config.name}: the {backend} backend supports only LRU"
            )
        if backend == "dict":
            # per-set dict: line -> dirty flag; iteration order is recency
            # (first inserted == least recent after move-to-end updates).
            self._sets = [dict() for _ in range(config.nsets)]
        elif backend == "ways":
            self._policy = policy or make_policy(config.policy)
            self._lines = [[None] * self._assoc for _ in range(config.nsets)]
            self._dirty = [[False] * self._assoc for _ in range(config.nsets)]
            self._pstate = [self._policy.new_state(self._assoc)
                            for _ in range(config.nsets)]
        else:
            # tags (-1 = empty) and dirty bits, most recent way first:
            # the LRU way is the last valid one
            shape = (config.nsets, self._assoc)
            self._tags = np.full(shape, -1, dtype=np.int64)
            self._adirty = np.zeros(shape, dtype=bool)

    def _kernel_owned(self) -> ExecutionError:
        return ExecutionError(
            f"{self.config.name}: array-backed cache state is written "
            "only by the C kernel"
        )

    # ------------------------------------------------------------------
    # shared state-transition accounting
    #
    # The two representations only *locate and move* lines; every
    # statistic is recorded by exactly one of the helpers below, so the
    # fast and generic paths cannot drift apart in their accounting
    # (the historical duplication hazard).
    # ------------------------------------------------------------------
    def _record_lookup(self, hit: bool) -> bool:
        if hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        return hit

    def _record_eviction(
        self, evicted: Optional[Tuple[int, bool]]
    ) -> Optional[Tuple[int, bool]]:
        if evicted is not None:
            self.stats.evictions += 1
            if evicted[1]:
                self.stats.dirty_evictions += 1
        return evicted

    def _record_invalidation(self, dirty: Optional[bool]) -> Optional[bool]:
        if dirty is not None:
            self.stats.invalidations += 1
        return dirty

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def lookup_update(self, line: int, mark_dirty: bool = False) -> bool:
        """Demand access: on hit, refresh recency (and dirty); no fill."""
        if self._fast:
            s = self._sets[line & self._set_mask]
            hit = line in s
            if hit:
                s[line] = s.pop(line) or mark_dirty
        elif self._backend == "ways":
            hit = self._generic_lookup(line, mark_dirty)
        else:
            raise self._kernel_owned()
        return self._record_lookup(hit)

    def _generic_lookup(self, line: int, mark_dirty: bool) -> bool:
        set_idx = line & self._set_mask
        lines = self._lines[set_idx]
        for way in range(self._assoc):
            if lines[way] == line:
                self._policy.on_hit(self._pstate[set_idx], way)
                if mark_dirty:
                    self._dirty[set_idx][way] = True
                return True
        return False

    def fill(self, line: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Insert ``line``; returns ``(evicted_line, was_dirty)`` or None.

        Filling a line already present refreshes it (dirty flags OR).
        """
        if self._backend == "array":
            raise self._kernel_owned()
        self.stats.fills += 1
        if self._fast:
            s = self._sets[line & self._set_mask]
            if line in s:
                s[line] = s.pop(line) or dirty
                evicted = None
            else:
                if len(s) >= self._assoc:
                    victim = next(iter(s))
                    evicted = (victim, s.pop(victim))
                else:
                    evicted = None
                    self._resident += 1
                s[line] = dirty
        else:
            evicted = self._generic_fill(line, dirty)
        return self._record_eviction(evicted)

    def _generic_fill(self, line: int, dirty: bool) -> Optional[Tuple[int, bool]]:
        set_idx = line & self._set_mask
        lines = self._lines[set_idx]
        state = self._pstate[set_idx]
        for way in range(self._assoc):
            if lines[way] == line:
                self._policy.on_fill(state, way)
                self._dirty[set_idx][way] = self._dirty[set_idx][way] or dirty
                return None
        for way in range(self._assoc):
            if lines[way] is None:
                lines[way] = line
                self._dirty[set_idx][way] = dirty
                self._policy.on_fill(state, way)
                self._resident += 1
                return None
        way = self._policy.victim(state, self._assoc)
        evicted = (lines[way], self._dirty[set_idx][way])
        lines[way] = line
        self._dirty[set_idx][way] = dirty
        self._policy.on_fill(state, way)
        return evicted

    def mark_dirty(self, line: int) -> bool:
        """Set the dirty bit of a resident line without touching recency
        or hit/miss statistics (writeback absorption from an upper level).
        Returns False when the line is not resident."""
        if self._fast:
            s = self._sets[line & self._set_mask]
            if line in s:
                s[line] = True
                return True
            return False
        if self._backend == "array":
            raise self._kernel_owned()
        set_idx = line & self._set_mask
        lines = self._lines[set_idx]
        for way in range(self._assoc):
            if lines[way] == line:
                self._dirty[set_idx][way] = True
                return True
        return False

    def invalidate(self, line: int) -> Optional[bool]:
        """Drop ``line`` if present; returns its dirty flag, else None."""
        if self._fast:
            s = self._sets[line & self._set_mask]
            dirty = s.pop(line) if line in s else None
        elif self._backend == "ways":
            dirty = self._generic_invalidate(line)
        else:
            raise self._kernel_owned()
        if dirty is not None:
            self._resident -= 1
        return self._record_invalidation(dirty)

    def _generic_invalidate(self, line: int) -> Optional[bool]:
        set_idx = line & self._set_mask
        lines = self._lines[set_idx]
        for way in range(self._assoc):
            if lines[way] == line:
                lines[way] = None
                dirty = self._dirty[set_idx][way]
                self._dirty[set_idx][way] = False
                return dirty
        return None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def contains(self, line: int) -> bool:
        """Non-mutating residency test (no recency update)."""
        if self._fast:
            return line in self._sets[line & self._set_mask]
        if self._backend == "array":
            return bool((self._tags[line & self._set_mask] == line).any())
        return line in self._lines[line & self._set_mask]

    def resident_lines(self) -> Iterator[int]:
        """All currently resident lines (test/diagnostic use)."""
        if self._fast:
            for s in self._sets:
                yield from s
        elif self._backend == "array":
            for tag in self._tags.ravel():
                if tag != -1:
                    yield int(tag)
        else:
            for lines in self._lines:
                for line in lines:
                    if line is not None:
                        yield line

    def dirty_lines(self) -> Iterator[int]:
        """All resident dirty lines."""
        if self._fast:
            for s in self._sets:
                for line, dirty in s.items():
                    if dirty:
                        yield line
        elif self._backend == "array":
            flat_tags = self._tags.ravel()
            flat_dirty = self._adirty.ravel()
            for idx in np.nonzero(flat_dirty)[0]:
                if flat_tags[idx] != -1:
                    yield int(flat_tags[idx])
        else:
            for set_idx, lines in enumerate(self._lines):
                for way, line in enumerate(lines):
                    if line is not None and self._dirty[set_idx][way]:
                        yield line

    def occupancy(self) -> int:
        """Number of resident lines (O(1): maintained as a counter)."""
        return self._resident

    def clear(self) -> None:
        """Drop all contents (dirty data is discarded, not written back)."""
        with SPANS("cache.clear", level=self.config.name):
            self._resident = 0
            if self._fast:
                for s in self._sets:
                    s.clear()
            elif self._backend == "array":
                # In place: external views of these arrays (the C datapath
                # kernel caches raw pointers) must stay valid across clears.
                self._tags.fill(-1)
                self._adirty.fill(False)
            else:
                for set_idx in range(self.config.nsets):
                    self._lines[set_idx] = [None] * self._assoc
                    self._dirty[set_idx] = [False] * self._assoc
                    self._pstate[set_idx] = self._policy.new_state(self._assoc)

    def __repr__(self) -> str:
        c = self.config
        return (
            f"Cache({c.name}: {c.size_bytes} B, {c.assoc}-way, "
            f"{c.nsets} sets, {c.policy})"
        )
