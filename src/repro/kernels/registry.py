"""Kernel registry: name -> factory, for the CLI, experiments, sweeps.

Factories are :func:`functools.partial` objects (not lambdas) so that
:func:`make_kernel` can forward extra keyword arguments — sweep points
address a kernel as ``registry name + kwargs`` and the kwargs must
reach the constructor (e.g. ``spmv`` with a custom gather bandwidth).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List

from ..errors import ConfigurationError
from .base import Kernel
from .blas1 import Daxpy, Dot, Scale, StreamTriad, StridedSum, SumReduction
from .blas2 import Dgemv
from .blas3 import Dgemm
from .ert import ErtKernel
from .fft import Fft
from .memops import Memcpy, Memset, ReadStream
from .spmv import Spmv
from .stencil import Stencil3

_FACTORIES: Dict[str, Callable[..., Kernel]] = {
    "daxpy": Daxpy,
    "triad": StreamTriad,
    "triad-nt": partial(StreamTriad, nt_stores=True),
    "dot": Dot,
    "scale": Scale,
    "sum": SumReduction,
    "strided-sum": StridedSum,
    "dgemv-row": partial(Dgemv, layout="row"),
    "dgemv-col": partial(Dgemv, layout="col"),
    "dgemm-naive": partial(Dgemm, variant="naive"),
    "dgemm-ikj": partial(Dgemm, variant="ikj"),
    "dgemm-blocked": partial(Dgemm, variant="blocked"),
    "dgemm-tiled": partial(Dgemm, variant="tiled"),
    "ert": ErtKernel,
    "fft": Fft,
    "spmv": Spmv,
    "spmv-wide": partial(Spmv, bandwidth=1 << 20),
    "stencil3": Stencil3,
    "read": ReadStream,
    "memset": Memset,
    "memset-nt": partial(Memset, nt_stores=True),
    "memcpy": Memcpy,
    "memcpy-nt": partial(Memcpy, nt_stores=True),
}


#: the paper's short names, accepted wherever a kernel is named: "the
#: dgemm" of its figures is the tiled one, and dgemv the row-major walk
ALIASES = {"dgemm": "dgemm-tiled", "dgemv": "dgemv-row"}


def resolve_kernel(name: str) -> str:
    """The registry name ``name`` stands for (aliases resolve)."""
    name = ALIASES.get(name, name)
    if name not in _FACTORIES:
        raise ConfigurationError(
            f"unknown kernel {name!r}; known: {', '.join(kernel_names())}"
        )
    return name


def make_kernel(name: str, **kwargs) -> Kernel:
    """Instantiate a kernel by registry name or alias.

    ``kwargs`` are forwarded to the kernel constructor on top of the
    entry's baked-in arguments (a duplicate keyword is an error).
    """
    factory = _FACTORIES[resolve_kernel(name)]
    try:
        return factory(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(
            f"kernel {name!r} rejected arguments {kwargs}: {exc}"
        ) from exc


def kernel_names() -> List[str]:
    """All registered kernel names, sorted."""
    return sorted(_FACTORIES)


def kernel_choices() -> List[str]:
    """Every name a front end accepts: registry names, then aliases."""
    return kernel_names() + sorted(ALIASES)


def register_kernel(name: str, factory: Callable[[], Kernel]) -> None:
    """Register a user-defined kernel (library extension point)."""
    if name in _FACTORIES or name in ALIASES:
        raise ConfigurationError(f"kernel {name!r} already registered")
    _FACTORIES[name] = factory
