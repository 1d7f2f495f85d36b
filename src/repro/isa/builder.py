"""Runtime program builder — the simulator's analogue of Xbyak.

The ISPASS'14 methodology generates its microbenchmark code at runtime so
that measurements are compiler-agnostic and dead code cannot be removed.
:class:`ProgramBuilder` plays that role here: kernels and benchmarks
assemble :class:`~repro.isa.program.Program` trees through a small fluent
API with readable affine addressing::

    b = ProgramBuilder()
    x = b.buffer("x", n * 8)
    y = b.buffer("y", n * 8)
    alpha = b.reg()
    with b.loop(n // 4) as i:
        vx = b.load(x[i * 32], width=256)
        vy = b.load(y[i * 32], width=256)
        acc = b.fma(alpha, vx, vy, width=256)
        b.store(acc, y[i * 32], width=256)
    program = b.build()
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

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
from .program import Program
from .registers import Register, RegisterAllocator


@dataclass(frozen=True)
class _Term:
    """``loop_var * coeff`` inside an affine address expression."""

    loop_id: str
    coeff: int


class AffineExpr:
    """Sum of loop-variable terms plus a constant byte offset."""

    def __init__(self, offset: int = 0, terms: Tuple[_Term, ...] = ()) -> None:
        self.offset = offset
        self.terms = terms

    def __add__(self, other: Union["AffineExpr", "LoopVar", int]) -> "AffineExpr":
        other = _as_affine(other)
        merged: Dict[str, int] = {}
        for term in self.terms + other.terms:
            merged[term.loop_id] = merged.get(term.loop_id, 0) + term.coeff
        terms = tuple(_Term(lid, c) for lid, c in merged.items() if c != 0)
        return AffineExpr(self.offset + other.offset, terms)

    __radd__ = __add__

    def to_strides(self) -> Tuple[Tuple[str, int], ...]:
        return tuple((t.loop_id, t.coeff) for t in self.terms)


class LoopVar:
    """Induction variable handle returned by :meth:`ProgramBuilder.loop`."""

    def __init__(self, loop_id: str) -> None:
        self.loop_id = loop_id

    def __mul__(self, coeff: int) -> AffineExpr:
        if not isinstance(coeff, int):
            raise IsaError("loop variables scale by integer byte strides only")
        return AffineExpr(0, (_Term(self.loop_id, coeff),))

    __rmul__ = __mul__

    def __add__(self, other) -> AffineExpr:
        return (self * 1) + other

    __radd__ = __add__

    def __repr__(self) -> str:
        return f"LoopVar({self.loop_id!r})"


def _as_affine(value) -> AffineExpr:
    if isinstance(value, AffineExpr):
        return value
    if isinstance(value, LoopVar):
        return value * 1
    if isinstance(value, int):
        if value < 0:
            raise IsaError("address offsets must be non-negative")
        return AffineExpr(value)
    raise IsaError(f"cannot use {value!r} in an address expression")


class BufferHandle:
    """Named buffer; indexing yields an :class:`AddrExpr`."""

    def __init__(self, name: str, size: int) -> None:
        self.name = name
        self.size = size

    def __getitem__(self, expr) -> AddrExpr:
        affine = _as_affine(expr)
        return AddrExpr(self.name, affine.offset, affine.to_strides())

    @property
    def base(self) -> AddrExpr:
        return AddrExpr(self.name, 0, ())

    def __repr__(self) -> str:
        return f"BufferHandle({self.name!r}, {self.size})"


class TableHandle:
    """Named gather index table; indexing yields an element-indexed
    :class:`AddrExpr` (strides count table entries, not bytes)."""

    def __init__(self, name: str, length: int) -> None:
        self.name = name
        self.length = length

    def __getitem__(self, expr) -> AddrExpr:
        affine = _as_affine(expr)
        return AddrExpr(self.name, affine.offset, affine.to_strides())

    def __repr__(self) -> str:
        return f"TableHandle({self.name!r}, {self.length})"


class ProgramBuilder:
    """Assembles programs; see module docstring for the idiom."""

    def __init__(self) -> None:
        self._buffers: Dict[str, int] = {}
        self._tables: Dict[str, object] = {}
        self._body_stack: List[List[object]] = [[]]
        self._regs = RegisterAllocator()
        self._loop_counter = 0
        self._built = False

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------
    def buffer(self, name: str, size_bytes: int) -> BufferHandle:
        """Declare a data buffer of ``size_bytes``."""
        if name in self._buffers:
            raise IsaError(f"buffer {name!r} declared twice")
        if size_bytes <= 0:
            raise IsaError(f"buffer {name!r} needs positive size")
        self._buffers[name] = size_bytes
        return BufferHandle(name, size_bytes)

    def index_table(self, name: str, byte_offsets) -> TableHandle:
        """Register a gather index table (byte offsets: an int sequence
        or int array, copied)."""
        if name in self._tables or name in self._buffers:
            raise IsaError(f"table/buffer name {name!r} already used")
        offsets = np.array(byte_offsets, dtype=np.int64)
        if not offsets.size:
            raise IsaError(f"index table {name!r} must be non-empty")
        if offsets.min() < 0:
            raise IsaError(f"index table {name!r} has negative offsets")
        self._tables[name] = offsets
        return TableHandle(name, len(offsets))

    def reg(self) -> Register:
        """Allocate a fresh vector register (uninitialised constant)."""
        return self._regs.fresh()

    def regs(self, count: int) -> List[Register]:
        """Allocate ``count`` fresh vector registers."""
        return self._regs.reserve(count)

    # ------------------------------------------------------------------
    # control flow
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def loop(self, trips: int, loop_id: Optional[str] = None):
        """Open a counted loop; yields its induction variable."""
        if loop_id is None:
            loop_id = f"i{self._loop_counter}"
            self._loop_counter += 1
        self._body_stack.append([])
        try:
            yield LoopVar(loop_id)
        finally:
            body = self._body_stack.pop()
            self._emit(Loop(loop_id, trips, tuple(body)))

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def load(self, addr: AddrExpr, width: int = 256, dst: Optional[Register] = None) -> Register:
        dst = dst or self.reg()
        self._emit(Load(dst, addr, width))
        return dst

    def store(self, src: Register, addr: AddrExpr, width: int = 256, nt: bool = False) -> None:
        self._emit(Store(src, addr, width, nt=nt))

    def gather(self, buffer: BufferHandle, index: AddrExpr,
               width: int = 64, dst: Optional[Register] = None) -> Register:
        """Indexed load: fetch ``buffer[table[index]]`` (see GatherLoad)."""
        dst = dst or self.reg()
        self._emit(GatherLoad(dst, buffer.name, index, width))
        return dst

    def prefetch(self, addr: AddrExpr) -> None:
        self._emit(PrefetchHint(addr))

    def flush(self, addr: AddrExpr) -> None:
        self._emit(Flush(addr))

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _binop(self, op: str, a: Register, b: Register, width: int,
               precision: str, dst: Optional[Register]) -> Register:
        dst = dst or self.reg()
        self._emit(VecOp(op, width, dst, (a, b), precision))
        return dst

    def add(self, a, b, width=256, precision="f64", dst=None) -> Register:
        return self._binop("add", a, b, width, precision, dst)

    def sub(self, a, b, width=256, precision="f64", dst=None) -> Register:
        return self._binop("sub", a, b, width, precision, dst)

    def mul(self, a, b, width=256, precision="f64", dst=None) -> Register:
        return self._binop("mul", a, b, width, precision, dst)

    def div(self, a, b, width=256, precision="f64", dst=None) -> Register:
        return self._binop("div", a, b, width, precision, dst)

    def max_(self, a, b, width=256, precision="f64", dst=None) -> Register:
        return self._binop("max", a, b, width, precision, dst)

    def min_(self, a, b, width=256, precision="f64", dst=None) -> Register:
        return self._binop("min", a, b, width, precision, dst)

    def fma(self, a: Register, b: Register, acc: Register,
            width: int = 256, precision: str = "f64",
            dst: Optional[Register] = None) -> Register:
        """``dst = a * b + acc``; by default ``dst is acc`` so repeated
        calls build the carried accumulation chain real FMA loops have."""
        dst = dst or acc
        self._emit(VecOp("fma", width, dst, (a, b, acc), precision))
        return dst

    # ------------------------------------------------------------------
    # finalisation
    # ------------------------------------------------------------------
    def _emit(self, node) -> None:
        if self._built:
            raise IsaError("builder already finalised")
        self._body_stack[-1].append(node)

    def build(self, check_bounds: bool = True) -> Program:
        """Finalise and validate the program."""
        if len(self._body_stack) != 1:
            raise IsaError("unclosed loop at build time")
        self._built = True
        program = Program(self._body_stack[0], self._buffers, self._tables)
        if check_bounds:
            program.check_bounds()
        return program
