"""Two-tier execution engine: compiled access plans + batched datapath.

* the **compile tier** (:mod:`repro.engine.plan`) lowers a flat loop's
  memory sites into a reusable, cached :class:`AccessPlan`;
* the **execute tier** (:mod:`repro.engine.datapath`) runs a plan
  through the memory hierarchy in the compiled C kernel (counters
  applied in bulk).

``engine="fast"`` (the default everywhere) uses both tiers when the C
kernel is in use, and otherwise walks like the reference engine;
``engine="reference"`` keeps the original per-line dispatch path.  The
two are counter-for-counter identical — see ``docs/ENGINE.md`` for the
equivalence argument and the conformance gates that enforce it.
"""

from .._lazy import lazy_exports
from ..errors import ConfigurationError

#: valid engine selectors, in CLI/choice order
ENGINES = ("fast", "reference")


def validate_engine(engine: str) -> str:
    """Return ``engine`` or raise for an unknown selector."""
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown execution engine {engine!r}; choose from {list(ENGINES)}"
        )
    return engine


__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".datapath": ("BatchDatapath",),
    ".plan": ("SYMBOLIC_REGISTRY", "AccessPlan", "PlanCache", "PlanCacheStats",
              "SymbolicPlan", "SymbolicRegistry"),
}, eager=("ENGINES", "validate_engine"))
