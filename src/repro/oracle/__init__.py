"""Conformance oracles: reference models cross-checked against the
fast simulation paths.

Three pillars (see ``docs/TESTING.md``):

* :mod:`repro.oracle.refmem` / :mod:`repro.oracle.reference` — a
  deliberately slow, obviously-correct reference interpreter and
  textbook cache/TLB model,
* :mod:`repro.oracle.differential` — the engine that runs a program on
  both paths and diffs every observable, with greedy repro
  minimisation,
* :mod:`repro.oracle.analytic` — exact closed-form W(n)/Q(n) checks
  for every registry kernel.

Driven by ``repro conformance`` (seeded CLI fuzzing) and by the
hypothesis suite under ``tests/oracle/``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".differential": ("DifferentialOutcome", "Divergence",
                      "diff_engine_sides", "minimize_program",
                      "render_program", "run_cross_engine",
                      "run_cross_engine_sequence", "run_differential"),
    ".fuzz": ("ProgramGenerator", "random_program"),
    ".refmem": ("InfiniteCacheMemory", "ReferenceMemory"),
    ".reference": ("ReferenceInterpreter", "RefResult"),
})
