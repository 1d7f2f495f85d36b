"""Sparse matrix-vector multiply (CSR-style, fixed row degree).

SpMV is the classic low-intensity roofline subject: two flops per
stored nonzero, but every nonzero drags its value (8 B), its column
index (8 B), and a *gather* from the dense vector whose locality
depends entirely on the sparsity pattern.  The kernel uses the ISA's
:class:`~repro.isa.instructions.GatherLoad` with a deterministic
pseudo-random (LCG) banded pattern, so work and footprint are exact
while the x-gather exercises genuinely irregular access.

Layout (ELLPACK-like, fixed ``row_nnz`` nonzeros per row):

========  =======================  ===========================
buffer    size                     access pattern
========  =======================  ===========================
vals      ``8 * n * row_nnz``      unit-stride read
colidx    ``8 * n * row_nnz``      unit-stride read
x         ``8 * n``                gather (pattern-dependent)
y         ``8 * n``                unit-stride read+write
========  =======================  ===========================
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..isa.program import Program
from .base import CodegenCaps, Kernel, new_builder, partition_range


#: the column generator's LCG: state' = (A * state + C) mod 2^31
_LCG_A, _LCG_C, _LCG_MASK = 1103515245, 12345, 0x7FFFFFFF


def _lcg_columns(n: int, row_nnz: int, bandwidth: int,
                 seed: int) -> np.ndarray:
    """Deterministic column indices for a square matrix: each row draws
    ``row_nnz`` columns from a band of ``bandwidth`` around the
    diagonal (wrapping)."""
    return _lcg_columns_rect(n, n, row_nnz, bandwidth, seed)


def _lcg_states(draws: int, seed: int) -> np.ndarray:
    """The LCG's first ``draws`` states after ``seed``, as int64.

    The step is affine, so ``k`` steps are one affine map
    ``(mult[k-1], add[k-1])``; composing the known maps with the last
    one doubles the table per pass.  Every factor is below 2^31, so
    each product fits in int64 before the mask.
    """
    mult = np.array([_LCG_A], dtype=np.int64)
    add = np.array([_LCG_C], dtype=np.int64)
    while len(mult) < draws:
        step_mult, step_add = mult[-1], add[-1]
        add = np.concatenate((add, (mult * step_add + add) & _LCG_MASK))
        mult = np.concatenate((mult, (mult * step_mult) & _LCG_MASK))
    return (mult[:draws] * (seed & _LCG_MASK) + add[:draws]) & _LCG_MASK


def _lcg_columns_rect(n: int, ncols: int, row_nnz: int, bandwidth: int,
                      seed: int) -> np.ndarray:
    """Rectangular variant: rows spread their band centres across all
    ``ncols`` columns so a wide matrix really is gathered widely.
    Row ``r`` takes draws ``r*row_nnz ...`` of one LCG stream."""
    band, rows = max(bandwidth, 1), max(n, 1)
    low = (np.arange(n, dtype=np.int64) * ncols) // rows - bandwidth // 2
    states = _lcg_states(n * row_nnz, seed)
    return (np.repeat(low, row_nnz) + states % band) % ncols


class Spmv(Kernel):
    """``y += A @ x`` with a fixed-degree synthetic sparse matrix.

    ``bandwidth`` controls gather locality: a narrow band keeps the
    x-gather cache-resident (SpMV behaves like a stream); a band wider
    than the cache makes every gather a potential miss.
    """

    name = "spmv"

    def __init__(self, row_nnz: int = 8, bandwidth: int = 512,
                 seed: int = 0xC0FFEE, cols: int = 0) -> None:
        """``cols`` widens the matrix (and the gathered ``x`` vector)
        beyond the row count — a rectangular ``n x cols`` operator.
        0 means square."""
        if row_nnz <= 0 or bandwidth <= 0:
            raise ConfigurationError("spmv needs positive row_nnz/bandwidth")
        if cols < 0:
            raise ConfigurationError("cols must be non-negative")
        self.row_nnz = row_nnz
        self.bandwidth = bandwidth
        self.seed = seed
        self.cols = cols

    def _ncols(self, n: int) -> int:
        return max(self.cols, n)

    def build(self, n: int, caps: CodegenCaps,
              rank: int = 0, nranks: int = 1) -> Program:
        self.validate_n(n, caps, nranks)
        lo, hi = partition_range(n, rank, nranks)
        k = self.row_nnz
        b = new_builder()
        ncols = self._ncols(n)
        vals = b.buffer("vals", 8 * n * k)
        colidx = b.buffer("colidx", 8 * n * k)
        x = b.buffer("x", 8 * ncols)
        y = b.buffer("y", 8 * n)
        columns = _lcg_columns_rect(n, ncols, k, min(self.bandwidth, ncols),
                                    self.seed)
        table = b.index_table("cols", 8 * columns)
        with b.loop(hi - lo, "row") as row:
            acc = b.reg()
            with b.loop(k, "j") as j:
                va = b.load(vals[row * (8 * k) + j * 8 + lo * 8 * k],
                            width=64)
                b.load(colidx[row * (8 * k) + j * 8 + lo * 8 * k], width=64)
                vx = b.gather(x, table[row * k + j * 1 + lo * k], width=64)
                prod = b.mul(va, vx, width=64)
                acc = b.add(prod, acc, width=64, dst=acc)
            vy = b.load(y[row * 8 + lo * 8], width=64)
            out = b.add(vy, acc, width=64)
            b.store(out, y[row * 8 + lo * 8], width=64)
        return b.build()

    # ------------------------------------------------------------------
    # ground truth
    # ------------------------------------------------------------------
    def flops(self, n: int) -> int:
        # 2 per nonzero plus the y accumulate per row
        return 2 * n * self.row_nnz + n

    def compulsory_bytes(self, n: int) -> int:
        # vals + colidx streamed once; the touched slice of x read once;
        # y read + written.  With a band narrower than the matrix, x is
        # only touched near the band centres (approximated as the lesser
        # of the full vector and nnz-driven coverage).
        x_touched = min(8 * self._ncols(n),
                        8 * n * self.row_nnz,
                        64 * n * self.row_nnz)
        return 16 * n * self.row_nnz + x_touched + 16 * n

    def footprint_bytes(self, n: int) -> int:
        return 16 * n * self.row_nnz + 8 * self._ncols(n) + 8 * n

    def validate_n(self, n: int, caps: CodegenCaps, nranks: int = 1) -> None:
        if n <= 0 or n % nranks:
            raise ConfigurationError(
                f"spmv: n={n} must divide into {nranks} rank(s)"
            )

    def describe(self) -> str:
        return (f"spmv (ELLPACK, {self.row_nnz} nnz/row, "
                f"band {self.bandwidth})")

    def __repr__(self) -> str:
        return f"Spmv(row_nnz={self.row_nnz}, bandwidth={self.bandwidth})"
