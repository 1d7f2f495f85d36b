"""Declarative sweep plans: the measurement grid as data.

A roofline sweep is a grid of measurement points — (kernel x size x
protocol x machine-config x core-set) — and the paper's methodology
evaluates each point independently: fresh machine, two-run subtraction,
medians over repetitions.  :class:`SweepPoint` captures one point as
plain data; :class:`SweepPlan` is an ordered collection of points.

Because a point is pure data (the machine is a :class:`MachineRef`
recipe, the kernel a registry name + kwargs), plans pickle cleanly to
worker processes and hash stably into cache keys.  Point order is
execution-irrelevant — every point builds its own machine — but result
order always matches plan order.

:meth:`SweepPoint.predicted_work` estimates a point's simulation cost
from its data alone, so a pool can start the longest points first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError, SweepError
from ..kernels.registry import make_kernel, resolve_kernel
from ..machine.ref import KwargItems, MachineRef
from ..measure.protocol import PROTOCOLS


@dataclass(frozen=True)
class SweepPoint:
    """One independent measurement: everything measure_kernel needs."""

    #: recipe for the platform this point is measured on
    machine: MachineRef
    #: kernel registry name (see :mod:`repro.kernels.registry`); an
    #: alias is stored as the name it stands for
    kernel: str
    #: problem size (elements / matrix order, per the kernel's convention)
    n: int
    #: cache-state protocol applied before the measured run
    protocol: str = "cold"
    #: measurement repetitions summarised into the reported medians
    reps: int = 2
    #: core ids executing the kernel (static partitioning)
    cores: Tuple[int, ...] = (0,)
    #: extra keyword arguments for the kernel factory, sorted items
    kernel_args: KwargItems = ()
    #: SIMD width override passed to codegen (``None`` = machine max)
    width_bits: Optional[int] = None

    def __post_init__(self) -> None:
        try:
            # an alias names the same point, so it keys as its target
            object.__setattr__(self, "kernel", resolve_kernel(self.kernel))
        except ConfigurationError:
            raise SweepError(
                f"unknown kernel {self.kernel!r} in sweep point"
            ) from None
        if self.protocol not in PROTOCOLS:
            raise SweepError(
                f"unknown protocol {self.protocol!r} in sweep point; "
                f"known: {', '.join(PROTOCOLS)}"
            )
        if self.n <= 0:
            raise SweepError(f"sweep point needs positive n, got {self.n}")
        if self.reps < 1:
            raise SweepError("sweep point needs at least one repetition")
        if not self.cores:
            raise SweepError("sweep point needs at least one core")
        if len(set(self.cores)) != len(self.cores):
            raise SweepError(
                f"sweep point lists a core twice: {self.cores}"
            )

    def predicted_work(self) -> int:
        """Bytes the point's one simulated session walks through.

        Run A of the first repetition is the only session simulated
        (the baseline and later repetitions are replayed), and its
        passes each walk the kernel's footprint: the init pass and the
        measured kernel, plus the warm protocol's warm-up run, or the
        cold protocol's buster reading twice the machine's aggregate
        cache capacity.  Computed from the point's data and its
        machine's spec alone: nothing is built or simulated.
        """
        footprint = self.build_kernel().footprint_bytes(self.n)
        if self.protocol == "warm":
            return 3 * footprint
        return 2 * footprint + 2 * self.machine.spec().total_cache_bytes()

    def build_kernel(self):
        return make_kernel(self.kernel, **dict(self.kernel_args))

    def key_doc(self) -> dict:
        """Canonical JSON-able identity; the cache key hashes this."""
        return {
            "machine": self.machine.key_doc(),
            "kernel": self.kernel,
            "kernel_args": [[k, v] for k, v in self.kernel_args],
            "n": self.n,
            "protocol": self.protocol,
            "reps": self.reps,
            "cores": list(self.cores),
            "width_bits": self.width_bits,
        }

    def label(self) -> str:
        extra = "".join(f" {k}={v}" for k, v in self.kernel_args)
        return (f"{self.kernel} n={self.n} ({self.protocol}, "
                f"{len(self.cores)}t{extra}) on {self.machine.describe()}")


class SweepPlan:
    """An ordered list of sweep points with grid-builder helpers."""

    def __init__(self, points: Iterable[SweepPoint] = ()) -> None:
        self.points: List[SweepPoint] = list(points)

    def add(self, point: SweepPoint) -> SweepPoint:
        self.points.append(point)
        return point

    def add_sweep(self, machine: MachineRef, kernel: str,
                  sizes: Iterable[int], protocol: str = "cold",
                  reps: int = 2, cores: Tuple[int, ...] = (0,),
                  kernel_args: Optional[dict] = None,
                  width_bits: Optional[int] = None) -> List[SweepPoint]:
        """Append one size sweep (a single roofline trajectory)."""
        args = tuple(sorted((kernel_args or {}).items()))
        added = [
            SweepPoint(machine=machine, kernel=kernel, n=n,
                       protocol=protocol, reps=reps, cores=tuple(cores),
                       kernel_args=args, width_bits=width_bits)
            for n in sizes
        ]
        self.points.extend(added)
        return added

    def extend(self, other: "SweepPlan") -> None:
        self.points.extend(other.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self.points)

    def __repr__(self) -> str:
        return f"SweepPlan({len(self.points)} points)"
