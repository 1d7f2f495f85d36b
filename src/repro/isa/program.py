"""Program IR: a tree of loops and instructions plus buffer declarations.

A :class:`Program` is what kernels build and what the core interpreter
executes.  Because every address is affine in the enclosing loop
induction variables, the IR supports exact *static* accounting: flops,
loads, stores, and bytes can be computed without execution, which the
test suite uses as ground truth against both the interpreter and the
simulated PMU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..errors import IsaError
from .instructions import (
    AddrExpr,
    Flush,
    GatherLoad,
    Load,
    Loop,
    PrefetchHint,
    Store,
    VecOp,
)


@dataclass(frozen=True)
class StaticCounts:
    """Exact dynamic-execution counts derived from the IR.

    ``fp_by_width`` maps (width_bits, precision) to the number of counted
    FP instruction executions — the quantity the simulated PMU events
    mirror (before any overcount artifact).
    """

    flops: int = 0
    fp_by_width: Tuple[Tuple[Tuple[int, str], int], ...] = ()
    loads: int = 0
    stores: int = 0
    nt_stores: int = 0
    load_bytes: int = 0
    store_bytes: int = 0
    prefetches: int = 0
    flushes: int = 0

    @property
    def mem_ops(self) -> int:
        return self.loads + self.stores + self.nt_stores

    def fp_width_map(self) -> Dict[Tuple[int, str], int]:
        return dict(self.fp_by_width)


class Program:
    """An executable program: buffer declarations plus a loop/instr tree.

    ``tables`` holds gather index tables: name -> int64 array of *byte
    offsets* into the gathered buffer (see
    :class:`~repro.isa.instructions.GatherLoad`).
    """

    def __init__(self, body: List[object], buffers: Dict[str, int],
                 tables: Dict[str, np.ndarray] = None) -> None:
        self.body: Tuple[object, ...] = tuple(body)
        self.buffers: Dict[str, int] = dict(buffers)
        self.tables: Dict[str, np.ndarray] = {
            name: np.asarray(values, dtype=np.int64)
            for name, values in (tables or {}).items()
        }
        self._validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for name, size in self.buffers.items():
            if size <= 0:
                raise IsaError(f"buffer {name!r} has non-positive size {size}")
        self._validate_nodes(self.body, scope=())

    def _validate_nodes(self, nodes, scope: Tuple[str, ...]) -> None:
        for node in nodes:
            if isinstance(node, Loop):
                if node.loop_id in scope:
                    raise IsaError(
                        f"loop id {node.loop_id!r} shadows an enclosing loop"
                    )
                self._validate_nodes(node.body, scope + (node.loop_id,))
            elif isinstance(node, (Load, Store, PrefetchHint, Flush)):
                self._validate_addr(node.addr, scope, node)
            elif isinstance(node, GatherLoad):
                self._validate_gather(node, scope)
            elif isinstance(node, VecOp):
                pass
            else:
                raise IsaError(f"unknown IR node {node!r}")

    def _validate_gather(self, node: GatherLoad, scope) -> None:
        if node.buffer not in self.buffers:
            raise IsaError(f"{node} gathers from undeclared buffer "
                           f"{node.buffer!r}")
        table_name = node.index_addr.buffer
        if table_name not in self.tables:
            raise IsaError(f"{node} references unknown index table "
                           f"{table_name!r}")
        for loop_id, _stride in node.index_addr.strides:
            if loop_id not in scope:
                raise IsaError(
                    f"{node} uses induction variable {loop_id!r} "
                    "outside its loop"
                )

    def _validate_addr(self, addr: AddrExpr, scope, node) -> None:
        if addr.buffer not in self.buffers:
            raise IsaError(f"{node} references undeclared buffer {addr.buffer!r}")
        for loop_id, _stride in addr.strides:
            if loop_id not in scope:
                raise IsaError(
                    f"{node} uses induction variable {loop_id!r} outside its loop"
                )

    # ------------------------------------------------------------------
    # static accounting
    # ------------------------------------------------------------------
    def static_counts(self) -> StaticCounts:
        """Exact dynamic counts obtained by walking the tree with trip
        multipliers — no execution required."""
        acc = _CountAccumulator()
        _accumulate(self.body, 1, acc)
        return acc.finish()

    def max_extent(self, buffer: str) -> int:
        """Highest byte offset (exclusive) any access may touch in
        ``buffer``; used to check accesses stay in bounds."""
        extents = [0]
        _max_extents(self.body, buffer, {}, extents)
        return extents[0]

    def check_bounds(self) -> None:
        """Raise :class:`IsaError` if any access can exceed its buffer."""
        for name, size in self.buffers.items():
            extent = self.max_extent(name)
            if extent > size:
                raise IsaError(
                    f"buffer {name!r} of {size} bytes is accessed up to "
                    f"offset {extent}"
                )
        self._check_gather_bounds()

    def _check_gather_bounds(self) -> None:
        for node, trips in _gathers(self.body, {}):
            table = self.tables[node.index_addr.buffer]
            lo, hi = node.index_range(trips)
            if lo < 0 or hi >= len(table):
                raise IsaError(
                    f"{node} indexes table entries {lo}..{hi} but the "
                    f"table has {len(table)} entries"
                )
            if len(table):
                hi = int(table.max()) + node.bytes
                size = self.buffers[node.buffer]
                if hi > size:
                    raise IsaError(
                        f"{node}: table offsets reach byte {hi} of a "
                        f"{size}-byte buffer"
                    )

    def walk(self) -> Iterator[object]:
        """Depth-first iterator over every node of the tree."""
        stack = list(reversed(self.body))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, Loop):
                stack.extend(reversed(node.body))

    def instruction_count(self) -> int:
        """Static (not dynamic) number of leaf instructions."""
        return sum(1 for n in self.walk() if not isinstance(n, Loop))

    def __repr__(self) -> str:
        return (
            f"Program({self.instruction_count()} static instructions, "
            f"{len(self.buffers)} buffers)"
        )


class _CountAccumulator:
    def __init__(self) -> None:
        self.flops = 0
        self.fp_by_width: Dict[Tuple[int, str], int] = {}
        self.loads = 0
        self.stores = 0
        self.nt_stores = 0
        self.load_bytes = 0
        self.store_bytes = 0
        self.prefetches = 0
        self.flushes = 0

    def finish(self) -> StaticCounts:
        return StaticCounts(
            flops=self.flops,
            fp_by_width=tuple(sorted(self.fp_by_width.items())),
            loads=self.loads,
            stores=self.stores,
            nt_stores=self.nt_stores,
            load_bytes=self.load_bytes,
            store_bytes=self.store_bytes,
            prefetches=self.prefetches,
            flushes=self.flushes,
        )


def _accumulate(nodes, multiplier: int, acc: _CountAccumulator) -> None:
    for node in nodes:
        if isinstance(node, Loop):
            _accumulate(node.body, multiplier * node.trips, acc)
        elif isinstance(node, VecOp):
            acc.flops += node.flops * multiplier
            if node.flops:
                key = (node.width_bits, node.precision)
                acc.fp_by_width[key] = acc.fp_by_width.get(key, 0) + multiplier
        elif isinstance(node, (Load, GatherLoad)):
            acc.loads += multiplier
            acc.load_bytes += node.bytes * multiplier
        elif isinstance(node, Store):
            if node.nt:
                acc.nt_stores += multiplier
            else:
                acc.stores += multiplier
            acc.store_bytes += node.bytes * multiplier
        elif isinstance(node, PrefetchHint):
            acc.prefetches += multiplier
        elif isinstance(node, Flush):
            acc.flushes += multiplier


def _gathers(nodes, trips: Dict[str, int]):
    """Yield ``(gather, {loop id: trips})`` for every gather, the dict
    holding the trip counts of its enclosing loops."""
    for node in nodes:
        if isinstance(node, Loop):
            yield from _gathers(node.body, {**trips, node.loop_id: node.trips})
        elif isinstance(node, GatherLoad):
            yield node, trips


def _max_extents(nodes, buffer: str, max_ivs: Dict[str, int], extents) -> None:
    for node in nodes:
        if isinstance(node, Loop):
            inner = dict(max_ivs)
            inner[node.loop_id] = max(node.trips - 1, 0)
            _max_extents(node.body, buffer, inner, extents)
        elif isinstance(node, (Load, Store, PrefetchHint, Flush)):
            if node.addr.buffer != buffer:
                continue
            width = getattr(node, "width_bits", 8 * 64)  # hints touch a line
            hi = node.addr.offset + width // 8
            for loop_id, stride in node.addr.strides:
                if stride > 0:
                    hi += max_ivs.get(loop_id, 0) * stride
            extents[0] = max(extents[0], hi)
