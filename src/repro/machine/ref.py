"""Picklable machine references: preset name + kwargs + overrides.

A machine is resolved in three steps, each a plain function of the
one before:

* **recipe** — a :class:`MachineRef`: a registered preset's name, the
  keyword arguments its spec function takes (``scale``, ``sockets``),
  and the spec-level overrides the ablation experiments rely on (L3
  replacement policy, timing-parameter substitution, prefetcher
  disable) plus the execution engine.  Plain data: it pickles to the
  sweep executor's workers and hashes into the sweep cache's keys.
* **spec** — :meth:`MachineRef.spec`, the platform's static
  :class:`~repro.machine.machine.MachineSpec` with the overrides
  applied.  Nothing is simulated, so every reader that needs only the
  shape (core lists, ERT working sets, figure grids, cost estimates)
  stops here.
* **machine** — :meth:`MachineRef.build`, a fresh live
  :class:`~repro.machine.machine.Machine` built once from the spec.
  It owns trace buses, PMU sessions and functional cache state, none
  of which belong on a wire.

Two refs with equal fields resolve to equal specs and build
behaviourally identical machines — the property the sweep determinism
suite locks down.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

from ..cpu.timing import TimingParams
from ..engine import validate_engine
from ..errors import ConfigurationError
from .machine import Machine, MachineSpec

#: option/timing overrides are stored as sorted ``(key, value)`` tuples
#: so refs stay hashable and their canonical form is order-independent
KwargItems = Tuple[Tuple[str, object], ...]


def _items(kwargs: Optional[dict]) -> KwargItems:
    return tuple(sorted((kwargs or {}).items()))


def _spec_function(preset: str) -> Callable[..., MachineSpec]:
    from .presets import PRESETS  # cycle: presets imports MachineRef

    try:
        return PRESETS[preset]
    except KeyError:
        raise ConfigurationError(
            f"unknown machine preset {preset!r}; known: {sorted(PRESETS)}"
        ) from None


def apply_l3_policy(spec: MachineSpec, policy: str) -> MachineSpec:
    """Spec with the L3 replacement policy swapped.

    Tree-PLRU needs power-of-two ways; the set count is kept and the
    ways trimmed, so capacity can shrink slightly (the A1 ablation
    notes this in its table).
    """
    l3 = spec.hierarchy.l3
    if policy == "plru" and l3.assoc & (l3.assoc - 1):
        assoc = 1 << (l3.assoc.bit_length() - 1)
        l3 = replace(l3, assoc=assoc,
                     size_bytes=l3.nsets * assoc * l3.line_bytes)
    return replace(
        spec,
        name=f"{spec.name}+{policy}",
        hierarchy=replace(spec.hierarchy, l3=replace(l3, policy=policy)),
    )


@dataclass(frozen=True)
class MachineRef:
    """A machine as data: preset name, factory kwargs, spec overrides."""

    #: registry name in :data:`repro.machine.presets.PRESETS`
    preset: str
    #: keyword arguments for the preset's spec function (``scale``,
    #: ``sockets``)
    options: KwargItems = ()
    #: L3 replacement policy override (``None`` keeps the preset's)
    l3_policy: Optional[str] = None
    #: when non-empty, the spec's timing is *replaced* by
    #: ``TimingParams(**dict(timing))`` — kwargs, not deltas
    timing: KwargItems = ()
    #: ``False`` disables every prefetch engine after construction
    prefetch_enabled: bool = True
    #: execution engine ("fast" or "reference"; equivalence-gated, so
    #: both produce identical measurements — see docs/ENGINE.md)
    engine: str = "fast"

    @classmethod
    def named(cls, preset: str, scale: float = 1.0,
              engine: str = "fast") -> "MachineRef":
        """The ref a front end means by a preset name, scale and engine.

        A fixed-geometry preset (``tiny``, ``oracle``) takes no scale:
        leaving it out keeps one key for every spelling of its machine.
        """
        if "scale" not in inspect.signature(_spec_function(preset)).parameters:
            return cls.of(preset, engine=engine)
        return cls.of(preset, scale=scale, engine=engine)

    @classmethod
    def of(cls, preset: str, *, l3_policy: Optional[str] = None,
           timing: Optional[dict] = None, prefetch_enabled: bool = True,
           engine: str = "fast", **options) -> "MachineRef":
        """Ergonomic constructor taking plain keyword arguments."""
        _spec_function(preset)
        validate_engine(engine)
        return cls(preset=preset, options=_items(options),
                   l3_policy=l3_policy, timing=_items(timing),
                   prefetch_enabled=prefetch_enabled, engine=engine)

    def with_overrides(self, *, l3_policy: Optional[str] = None,
                       timing: Optional[dict] = None,
                       prefetch_enabled: Optional[bool] = None) -> "MachineRef":
        """A copy with spec overrides applied on top of this ref."""
        return replace(
            self,
            l3_policy=self.l3_policy if l3_policy is None else l3_policy,
            timing=self.timing if timing is None else _items(timing),
            prefetch_enabled=(self.prefetch_enabled
                              if prefetch_enabled is None
                              else prefetch_enabled),
        )

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def spec(self) -> MachineSpec:
        """The platform this recipe describes, overrides applied; no
        machine is built."""
        spec_function = _spec_function(self.preset)
        try:
            spec = spec_function(**dict(self.options))
        except TypeError as exc:
            raise ConfigurationError(
                f"preset {self.preset!r} rejected options "
                f"{dict(self.options)}: {exc}"
            ) from exc
        if self.l3_policy is not None:
            spec = apply_l3_policy(spec, self.l3_policy)
        if self.timing:
            try:
                timing = TimingParams(**dict(self.timing))
            except TypeError as exc:
                raise ConfigurationError(
                    f"rejected timing override {dict(self.timing)}: {exc}"
                ) from exc
            spec = replace(spec, timing=timing)
        return spec

    def build(self) -> Machine:
        """A fresh machine; equal refs build identical machines."""
        machine = Machine(self.spec(), engine=self.engine)
        if not self.prefetch_enabled:
            machine.prefetch_control.disable_all()
        return machine

    def cores(self, threads: int) -> Tuple[int, ...]:
        """The first ``threads`` cores, filling socket 0 first (the
        paper's binding)."""
        return tuple(self.spec().topology.first_cores(threads))

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def key_doc(self) -> dict:
        """Canonical JSON-able identity (feeds the sweep cache key)."""
        doc = {
            "preset": self.preset,
            "options": [[k, v] for k, v in self.options],
            "l3_policy": self.l3_policy,
            "timing": [[k, v] for k, v in self.timing],
            "prefetch_enabled": self.prefetch_enabled,
        }
        # the default engine is omitted so pre-existing cached sweep
        # results keep their keys (the engines are equivalence-gated,
        # so "fast" results are by definition unchanged)
        if self.engine != "fast":
            doc["engine"] = self.engine
        return doc

    def describe(self) -> str:
        parts = [self.preset]
        parts.extend(f"{k}={v}" for k, v in self.options)
        if self.l3_policy:
            parts.append(f"l3={self.l3_policy}")
        if self.timing:
            parts.append("timing=" + ",".join(f"{k}={v}"
                                              for k, v in self.timing))
        if not self.prefetch_enabled:
            parts.append("prefetch=off")
        if self.engine != "fast":
            parts.append(f"engine={self.engine}")
        return " ".join(parts)
