"""repro — reproduction of "Applying the Roofline Model" (ISPASS 2014).

A counter-based roofline measurement methodology implemented end to end
on a simulated x86-like machine: ISA + interpreter, cache hierarchy with
prefetchers, core/uncore PMUs (including the Sandy Bridge FP overcount
artifact), peak microbenchmarks, measurement protocols, kernels, and the
roofline model/plots themselves.

Quickstart::

    import repro

    # discover the machine's per-level bandwidth ceilings with the
    # ERT grid and place dgemm on every band of the hierarchy
    result = repro.analyze("dgemm-tiled", [32, 64, 128], machine="snb")
    print(result.ascii())

Lower-level building blocks::

    from repro import paper_machine
    from repro.roofline import build_roofline
    from repro.measure import measure_kernel
    from repro.kernels import Daxpy

    machine = paper_machine()
    model = build_roofline(machine)
    measurement = measure_kernel(machine, Daxpy(), n=1 << 16)
"""

from .errors import ReproError
from .machine.machine import Machine, MachineSpec
from .machine.presets import make_machine, paper_machine, tiny_test_machine
from .machine.ref import MachineRef
from .roofline.ert import discover_ceilings
from .roofline.hierarchical import AnalyzeResult, analyze
from .sweep.cache import SweepCache
from .sweep.executor import run_plan
from .sweep.plan import SweepPlan, SweepPoint

# ``run_plan`` imports the backend it picks when it is called: load both
# now, so that a call's time is its work and not their compilation (the
# kernel registry ``analyze`` resolves names through is already loaded)
from .sweep.backends import localpool, serial  # noqa: F401

del localpool, serial

__version__ = "1.0.0"

__all__ = [
    "AnalyzeResult",
    "Machine",
    "MachineRef",
    "MachineSpec",
    "ReproError",
    "SweepCache",
    "SweepPlan",
    "SweepPoint",
    "__version__",
    "analyze",
    "discover_ceilings",
    "make_machine",
    "paper_machine",
    "run_plan",
    "tiny_test_machine",
]
