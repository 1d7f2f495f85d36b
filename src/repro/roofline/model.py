"""The roofline model: ceilings, attainable performance, ridge points.

``P(I) = min(pi, I * beta)`` — performance is bounded by the flat
compute roof ``pi`` and the slanted bandwidth roof ``I * beta``.  A
model carries *multiple* ceilings of each kind (scalar/SSE/AVX compute
tiers, per-method or per-thread-count bandwidths), exactly like the
layered plots in the paper; the topmost pair defines the roof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..errors import ConfigurationError


@dataclass(frozen=True)
class ComputeCeiling:
    """A horizontal roof: peak flops/s under some restriction."""

    label: str
    flops_per_second: float

    def __post_init__(self) -> None:
        if self.flops_per_second <= 0:
            raise ConfigurationError(f"ceiling {self.label!r} must be positive")


@dataclass(frozen=True)
class MemoryCeiling:
    """A slanted roof: peak bytes/s under some restriction."""

    label: str
    bytes_per_second: float

    def __post_init__(self) -> None:
        if self.bytes_per_second <= 0:
            raise ConfigurationError(f"ceiling {self.label!r} must be positive")


class RooflineModel:
    """One platform's roofline: a set of compute and memory ceilings."""

    def __init__(self, name: str,
                 compute: Sequence[ComputeCeiling],
                 memory: Sequence[MemoryCeiling]) -> None:
        if not compute or not memory:
            raise ConfigurationError(
                "a roofline needs at least one compute and one memory ceiling"
            )
        self.name = name
        self.compute = sorted(compute, key=lambda c: c.flops_per_second)
        self.memory = sorted(memory, key=lambda m: m.bytes_per_second)

    # ------------------------------------------------------------------
    # the roof
    # ------------------------------------------------------------------
    @property
    def peak_flops(self) -> float:
        """pi: the topmost compute ceiling."""
        return self.compute[-1].flops_per_second

    @property
    def peak_bandwidth(self) -> float:
        """beta: the topmost memory ceiling."""
        return self.memory[-1].bytes_per_second

    @property
    def ridge_intensity(self) -> float:
        """Intensity where the two topmost roofs meet (flops/byte)."""
        return self.peak_flops / self.peak_bandwidth

    def attainable(self, intensity: float,
                   compute: Optional[ComputeCeiling] = None,
                   memory: Optional[MemoryCeiling] = None) -> float:
        """``min(pi, I*beta)`` against chosen (default topmost) ceilings."""
        if intensity <= 0:
            raise ConfigurationError("intensity must be positive")
        pi = (compute or self.compute[-1]).flops_per_second
        beta = (memory or self.memory[-1]).bytes_per_second
        return min(pi, intensity * beta)

    def ridge_of(self, compute: ComputeCeiling,
                 memory: Optional[MemoryCeiling] = None) -> float:
        """Ridge intensity of one compute ceiling against a bandwidth."""
        beta = (memory or self.memory[-1]).bytes_per_second
        return compute.flops_per_second / beta

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def compute_ceiling(self, label: str) -> ComputeCeiling:
        for ceiling in self.compute:
            if ceiling.label == label:
                return ceiling
        raise ConfigurationError(f"no compute ceiling labelled {label!r}")

    def memory_ceiling(self, label: str) -> MemoryCeiling:
        for ceiling in self.memory:
            if ceiling.label == label:
                return ceiling
        raise ConfigurationError(f"no memory ceiling labelled {label!r}")

    def __repr__(self) -> str:
        return (
            f"RooflineModel({self.name!r}: pi={self.peak_flops / 1e9:.2f} GF/s, "
            f"beta={self.peak_bandwidth / 1e9:.2f} GB/s, "
            f"ridge={self.ridge_intensity:.2f} F/B)"
        )
