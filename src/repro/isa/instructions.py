"""Instruction set of the simulated vector ISA.

The ISA is deliberately small — it is the subset of x86 SIMD that the
ISPASS'14 measurement methodology cares about:

* packed/scalar floating-point arithmetic (``add``, ``sub``, ``mul``,
  ``div``, ``fma``, ``max``) at widths 64/128/256/512 bits,
* loads and stores, including non-temporal (streaming) stores,
* software prefetch hints and cache-line flushes.

Memory operands are *affine address expressions* over loop induction
variables, which is what lets the interpreter vectorise whole loop nests
instead of stepping instruction by instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import IsaError
from .registers import Register

VALID_WIDTHS = (64, 128, 256, 512)

PRECISION_F64 = "f64"
PRECISION_F32 = "f32"
_PRECISION_BYTES = {PRECISION_F64: 8, PRECISION_F32: 4}

FLOP_OPS = ("add", "sub", "mul", "div", "fma")
# max/min move data and compare; Intel's FP_ARITH/FP_COMP_OPS events do not
# count them, which is exactly the applicability limitation the paper
# discusses.  They execute on FP ports but contribute zero counted flops.
NONFLOP_OPS = ("max", "min")
VEC_OPS = FLOP_OPS + NONFLOP_OPS


def lanes(width_bits: int, precision: str = PRECISION_F64) -> int:
    """Number of elements a vector of ``width_bits`` holds."""
    if width_bits not in VALID_WIDTHS:
        raise IsaError(f"invalid vector width {width_bits}")
    return width_bits // (_PRECISION_BYTES[precision] * 8)


def flops_of(op: str, width_bits: int, precision: str = PRECISION_F64) -> int:
    """Counted flops of one dynamic execution of a vector op.

    FMA counts two flops per lane; ``max``/``min`` count zero, mirroring
    the PMU events the paper uses for work measurement.
    """
    if op in NONFLOP_OPS:
        return 0
    if op not in FLOP_OPS:
        raise IsaError(f"unknown vector op {op!r}")
    per_lane = 2 if op == "fma" else 1
    return per_lane * lanes(width_bits, precision)


@dataclass(frozen=True)
class AddrExpr:
    """Affine address ``buffer + offset + sum(iv * stride)``.

    ``strides`` maps loop induction-variable ids to byte strides.  The
    expression is affine in every enclosing loop variable, which the
    interpreter exploits to evaluate all addresses of a loop nest with
    one vectorised computation.
    """

    buffer: str
    offset: int = 0
    strides: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise IsaError(f"negative address offset {self.offset}")
        seen = set()
        for loop_id, _stride in self.strides:
            if loop_id in seen:
                raise IsaError(f"duplicate loop id {loop_id!r} in address")
            seen.add(loop_id)

    def stride_of(self, loop_id: str) -> int:
        """Byte stride with respect to one induction variable (0 if absent)."""
        for lid, stride in self.strides:
            if lid == loop_id:
                return stride
        return 0

    def evaluate(self, ivs: dict) -> int:
        """Concrete byte offset within the buffer for given iv values."""
        addr = self.offset
        for loop_id, stride in self.strides:
            try:
                addr += ivs[loop_id] * stride
            except KeyError as exc:
                raise IsaError(
                    f"address references loop {loop_id!r} outside its scope"
                ) from exc
        return addr

    def __str__(self) -> str:
        parts = [f"{lid}*{stride}" for lid, stride in self.strides]
        if self.offset or not parts:
            parts.append(str(self.offset))
        return f"{self.buffer}[{'+'.join(parts)}]"


@dataclass(frozen=True)
class VecOp:
    """A SIMD arithmetic instruction, e.g. ``vfma.f64.256 v2, v0, v1, v2``."""

    op: str
    width_bits: int
    dst: Register
    srcs: Tuple[Register, ...]
    precision: str = PRECISION_F64

    def __post_init__(self) -> None:
        if self.op not in VEC_OPS:
            raise IsaError(f"unknown vector op {self.op!r}")
        if self.width_bits not in VALID_WIDTHS:
            raise IsaError(f"invalid vector width {self.width_bits}")
        if self.precision not in _PRECISION_BYTES:
            raise IsaError(f"unknown precision {self.precision!r}")
        expected = 3 if self.op == "fma" else 2
        if len(self.srcs) != expected:
            raise IsaError(
                f"{self.op} expects {expected} source registers, got {len(self.srcs)}"
            )
        if not self.dst.is_vector or any(not s.is_vector for s in self.srcs):
            raise IsaError(f"{self.op} operates on vector registers only")

    @property
    def flops(self) -> int:
        """Counted flops per dynamic execution."""
        return flops_of(self.op, self.width_bits, self.precision)

    @property
    def lanes(self) -> int:
        return lanes(self.width_bits, self.precision)

    def __str__(self) -> str:
        regs = ", ".join(str(r) for r in (self.dst,) + self.srcs)
        return f"v{self.op}.{self.precision}.{self.width_bits} {regs}"


@dataclass(frozen=True)
class Load:
    """A vector load from an affine address."""

    dst: Register
    addr: AddrExpr
    width_bits: int

    def __post_init__(self) -> None:
        if self.width_bits not in VALID_WIDTHS:
            raise IsaError(f"invalid load width {self.width_bits}")
        if not self.dst.is_vector:
            raise IsaError("loads target vector registers")

    @property
    def bytes(self) -> int:
        return self.width_bits // 8

    def __str__(self) -> str:
        return f"vload.{self.width_bits} {self.dst}, {self.addr}"


@dataclass(frozen=True)
class Store:
    """A vector store; ``nt=True`` models a non-temporal streaming store.

    Non-temporal stores bypass the cache hierarchy and avoid the
    read-for-ownership traffic of write-allocate caches — the reason the
    paper's fastest bandwidth benchmark uses them.
    """

    src: Register
    addr: AddrExpr
    width_bits: int
    nt: bool = False

    def __post_init__(self) -> None:
        if self.width_bits not in VALID_WIDTHS:
            raise IsaError(f"invalid store width {self.width_bits}")
        if not self.src.is_vector:
            raise IsaError("stores read vector registers")

    @property
    def bytes(self) -> int:
        return self.width_bits // 8

    def __str__(self) -> str:
        mnem = "vstorent" if self.nt else "vstore"
        return f"{mnem}.{self.width_bits} {self.src}, {self.addr}"


@dataclass(frozen=True)
class GatherLoad:
    """An indexed (gather) load: data-dependent addressing.

    Affine addresses cannot express sparse access, but for a *fixed*
    sparse structure the address sequence is statically known.  A
    gather names an index table (registered on the Program); the
    element picked from the table is selected by an affine expression
    ``index_addr`` whose "buffer" is the table name and whose strides
    count table *elements*.  The fetched table value is the byte offset
    into ``buffer``.
    """

    dst: Register
    buffer: str
    index_addr: AddrExpr
    width_bits: int = 64

    def __post_init__(self) -> None:
        if self.width_bits not in VALID_WIDTHS:
            raise IsaError(f"invalid gather width {self.width_bits}")
        if not self.dst.is_vector:
            raise IsaError("gathers target vector registers")

    @property
    def bytes(self) -> int:
        return self.width_bits // 8

    def index_range(self, trips) -> Tuple[int, int]:
        """Lowest and highest index-table entry the gather reads while
        each loop it names runs ``trips[loop id]`` trips."""
        lo = hi = self.index_addr.offset
        for loop_id, stride in self.index_addr.strides:
            span = max(trips[loop_id] - 1, 0) * stride
            lo += min(span, 0)
            hi += max(span, 0)
        return lo, hi

    def __str__(self) -> str:
        return (f"vgather.{self.width_bits} {self.dst}, "
                f"{self.buffer}[@{self.index_addr}]")


@dataclass(frozen=True)
class PrefetchHint:
    """Software prefetch of the line containing ``addr`` (prefetcht0)."""

    addr: AddrExpr

    def __str__(self) -> str:
        return f"prefetch {self.addr}"


@dataclass(frozen=True)
class Flush:
    """Flush the line containing ``addr`` (clflush): used by cold-cache
    protocols and counter-validation microbenchmarks."""

    addr: AddrExpr

    def __str__(self) -> str:
        return f"clflush {self.addr}"


@dataclass(frozen=True)
class Loop:
    """A counted loop; ``loop_id`` names the induction variable."""

    loop_id: str
    trips: int
    body: Tuple[object, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.trips < 0:
            raise IsaError(f"loop {self.loop_id!r} has negative trip count")
        if not self.loop_id:
            raise IsaError("loop id must be non-empty")
