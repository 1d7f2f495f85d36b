"""Picklable machine references: preset name + kwargs + overrides.

A live :class:`~repro.machine.machine.Machine` owns trace buses, PMU
sessions, and functional cache state — none of which belong on a wire.
Work that crosses a process boundary (the sweep executor's worker pool)
or a cache-key boundary (the content-addressed result cache) instead
carries a :class:`MachineRef`: the *recipe* for a machine, as plain
data.  Workers rebuild an identical fresh machine from the recipe; the
cache hashes the recipe.

A ref names a registered preset and the keyword arguments its factory
takes, plus the spec-level overrides the ablation experiments rely on
(L3 replacement policy, timing-parameter substitution, prefetcher
disable).  Two refs with equal fields build behaviourally identical
machines — the property the sweep determinism suite locks down.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..cpu.timing import TimingParams
from ..engine import validate_engine
from ..errors import ConfigurationError
from .machine import Machine, MachineSpec

#: option/timing overrides are stored as sorted ``(key, value)`` tuples
#: so refs stay hashable and their canonical form is order-independent
KwargItems = Tuple[Tuple[str, object], ...]


#: specs (immutable) of the refs built in this process, emptied when
#: full: a ref reads its machine's shape without building another
_SPECS: Dict["MachineRef", MachineSpec] = {}
MAX_SPECS = 64


def _items(kwargs: Optional[dict]) -> KwargItems:
    return tuple(sorted((kwargs or {}).items()))


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
    #: keyword arguments for the preset factory (``scale``, ``sockets``)
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

        ``tiny`` takes no scale: its factory ignores one, and leaving
        it out keeps one key for every spelling of the tiny machine.
        """
        if preset == "tiny":
            return cls.of(preset, engine=engine)
        return cls.of(preset, scale=scale, engine=engine)

    @classmethod
    def of(cls, preset: str, *, l3_policy: Optional[str] = None,
           timing: Optional[dict] = None, prefetch_enabled: bool = True,
           engine: str = "fast", **options) -> "MachineRef":
        """Ergonomic constructor taking plain keyword arguments."""
        from .presets import PRESETS  # cycle: presets imports Machine too

        if preset not in PRESETS:
            raise ConfigurationError(
                f"unknown machine preset {preset!r}; known: {sorted(PRESETS)}"
            )
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
    # construction
    # ------------------------------------------------------------------
    def build(self) -> Machine:
        """A fresh machine; equal refs build identical machines."""
        from .presets import PRESETS

        try:
            factory = PRESETS[self.preset]
        except KeyError as exc:
            raise ConfigurationError(
                f"unknown machine preset {self.preset!r}; "
                f"known: {sorted(PRESETS)}"
            ) from exc
        try:
            machine = factory(engine=self.engine, **dict(self.options))
        except TypeError as exc:
            raise ConfigurationError(
                f"preset {self.preset!r} rejected options "
                f"{dict(self.options)}: {exc}"
            ) from exc
        spec = machine.spec
        if self.l3_policy is not None:
            spec = apply_l3_policy(spec, self.l3_policy)
        if self.timing:
            spec = replace(spec, timing=TimingParams(**dict(self.timing)))
        if spec is not machine.spec:
            machine = Machine(spec, engine=self.engine)
        if not self.prefetch_enabled:
            machine.prefetch_control.disable_all()
        if len(_SPECS) >= MAX_SPECS:
            _SPECS.clear()
        _SPECS[self] = machine.spec
        return machine

    def cores(self, threads: int) -> Tuple[int, ...]:
        """The first ``threads`` cores, filling socket 0 first (the
        paper's binding); a machine is built only when no equal ref was
        built in this process yet."""
        spec = _SPECS.get(self) or self.build().spec
        return tuple(spec.topology.first_cores(threads))

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
