"""Lazy package re-exports (PEP 562).

A package ``__init__`` that imports all of its submodules makes every
``import repro.x.y`` compile ``x``'s siblings too, whether or not the
process ever runs them.  Each package instead names the submodule that
defines each of its public names, and :func:`lazy_exports` builds the
module-level ``__getattr__``/``__dir__`` that import a name's submodule
on its first access::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".bus": ("ListSink", "NullSink", "TraceBus"),
        ".events": ("TraceEvent",),
    })

A resolved name is stored on the package, so later lookups are plain
attribute reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, List, Mapping, Tuple


def lazy_exports(package: str, table: Mapping[str, Iterable[str]],
                 eager: Iterable[str] = ()
                 ) -> Tuple[Callable, Callable, List[str]]:
    """Return ``package``'s ``__getattr__``, ``__dir__`` and ``__all__``.

    ``table`` maps a submodule, relative to ``package``, to the public
    names it defines; ``eager`` lists public names the package binds
    itself.
    """
    where = {name: module for module, names in table.items()
             for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, sorted([*eager, *where])
