"""Simulated vector ISA: registers, instructions, program IR, builder,
and a textual assembler.

This subpackage is the substrate the paper's runtime code generation
(Xbyak-style) maps onto: microbenchmarks and kernels are real programs in
this ISA, executed by :mod:`repro.cpu`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".assembler": ("format_program", "parse_addr", "parse_program"),
    ".builder": ("AffineExpr", "BufferHandle", "LoopVar", "ProgramBuilder"),
    ".instructions": ("AddrExpr", "Flush", "Load", "Loop", "PrefetchHint",
                      "Store", "VecOp", "flops_of", "lanes"),
    ".program": ("Program", "StaticCounts"),
    ".registers": ("Register", "RegisterAllocator", "gpr", "parse_register",
                   "vec"),
})
