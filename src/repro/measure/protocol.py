"""Cache-state protocols: cold and warm measurements.

The paper measures every kernel under two regimes:

* **cold** — caches are invalidated before each measured execution, so
  the kernel pays all compulsory misses.  The genuine method (and our
  default) sweeps a buffer larger than the aggregate cache capacity
  through the hierarchy, exactly like the paper's cache-buster; a cheap
  ``drop`` mode simply clears the simulated caches for fast tests.
* **warm** — the kernel runs unmeasured first, so whatever fits in
  cache stays resident and measured traffic drops (intensity rises).

Protocols are driven *inside* the measurement session: the overhead
(subtraction) run executes the same protocol without the measured
kernel, so protocol-induced counter pollution cancels — the paper's
two-run discipline.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from typing import Callable

from ..errors import MeasurementError
from ..isa.builder import ProgramBuilder


class Protocol(ABC):
    """Cache-state discipline applied before each measured execution."""

    name = "abstract"

    @abstractmethod
    def prepare(self, machine, run_kernel: Callable[[], object]) -> None:
        """Put the machine's caches in the protocol's state.

        ``run_kernel`` executes one unmeasured kernel pass (used by the
        warm protocol; cold protocols ignore it).
        """


class ColdCache(Protocol):
    """Invalidate before measuring.

    ``method='sweep'`` writes a buffer twice the aggregate cache size
    through the hierarchy (the honest buster); ``method='drop'`` clears
    the simulated caches directly (fast, for tests).
    """

    name = "cold"

    def __init__(self, method: str = "sweep") -> None:
        if method not in ("sweep", "drop"):
            raise MeasurementError(f"unknown cold method {method!r}")
        self.method = method
        # weakly keyed: a collected machine's buster goes with it, and a
        # new machine can never inherit one sized for other caches
        self._busters: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )

    def prepare(self, machine, run_kernel: Callable[[], object]) -> None:
        if self.method == "drop":
            machine.bust_caches()
            return
        loaded = self._buster_for(machine)
        machine.run(loaded, core_id=0)
        # training state gathered while busting would leak into the
        # measured run; hardware gets this for free because the buster's
        # pages differ from the kernel's
        for engines in machine.hierarchy._prefetchers:
            for engine in engines:
                engine.reset()

    def _buster_for(self, machine):
        if machine not in self._busters:
            size = 2 * machine.spec.total_cache_bytes()
            line = machine.spec.hierarchy.line_bytes
            b = ProgramBuilder()
            buf = b.buffer("buster", size)
            # a *read* sweep: fills every set with clean unrelated lines,
            # so evicting them during the measured kernel costs no
            # writeback traffic (a store sweep would leave the caches
            # dirty and pollute the kernel's measured Q)
            with b.loop(size // line) as i:
                b.load(buf[i * line], width=64)
            self._busters[machine] = machine.load(b.build())
        return self._busters[machine]


class WarmCache(Protocol):
    """Run the kernel unmeasured ``warmups`` times before measuring."""

    name = "warm"

    def __init__(self, warmups: int = 1) -> None:
        if warmups < 1:
            raise MeasurementError("warm protocol needs at least one warmup")
        self.warmups = warmups

    def prepare(self, machine, run_kernel: Callable[[], object]) -> None:
        for _ in range(self.warmups):
            run_kernel()


#: the protocol names :func:`make_protocol` accepts
PROTOCOLS = ("cold", "warm")


def make_protocol(spec) -> Protocol:
    """Coerce ``'cold'``/``'warm'``/a :class:`Protocol` to a protocol."""
    if isinstance(spec, Protocol):
        return spec
    if spec == "cold":
        return ColdCache()
    if spec == "warm":
        return WarmCache()
    raise MeasurementError(f"unknown protocol {spec!r}")
