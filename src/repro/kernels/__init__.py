"""Kernels: the paper's evaluation subjects, with exact analytic work
and compulsory-traffic models used as counter-validation ground truth."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("CodegenCaps", "Kernel", "partition_range"),
    ".blas1": ("Daxpy", "Dot", "Scale", "StreamTriad", "StridedSum",
               "SumReduction"),
    ".blas2": ("Dgemv",),
    ".blas3": ("Dgemm",),
    ".fft": ("Fft",),
    ".memops": ("Memcpy", "Memset", "ReadStream"),
    ".registry": ("kernel_names", "make_kernel", "register_kernel"),
    ".spmv": ("Spmv",),
    ".stencil": ("Stencil3",),
})
