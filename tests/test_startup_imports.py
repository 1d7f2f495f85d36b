"""What a fresh process loads, and what its timed work loads.

Every package re-exports its names lazily (``repro._lazy``) and each CLI
verb imports its own modules, so ``import repro`` compiles only what
``repro.analyze`` and ``repro.run_plan`` run.  These tests pin that in
fresh interpreters, by module name rather than by time:

* ``import repro`` and the ``measure``/``serve`` verbs leave the other
  verbs' code (experiments, oracle, service, plots, trace exporters,
  bench gate) unloaded;
* ``import repro`` still loads the analyze/run_plan closure, so a
  timed call imports nothing: a lazier ``repro/__init__`` would move
  that compilation into the work perfbench times.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

#: not loaded by ``import repro``
NOT_AT_IMPORT = (
    "repro.experiments",
    "repro.oracle",
    "repro.serve",
    "repro.bench",
    "repro.obs.benchgate",
    "repro.obs.dashboard",
    "repro.roofline.plot_svg",
    "repro.roofline.plot_ascii",
    "repro.trace.timeline",
    "repro.trace.collector",
    "repro.trace.export",
    "repro.measure.explain",
    "http.server",
    "asyncio",
)

#: not loaded by starting the ``measure`` or ``serve`` verb
NOT_AT_VERB = ("repro.experiments", "repro.oracle", "repro.obs.benchgate")

#: loaded by ``import repro``: ``analyze`` and ``run_plan`` call them
AT_IMPORT = (
    "repro.roofline.hierarchical",
    "repro.sweep.backends.localpool",
    "repro.kernels.registry",
)


def _run(script: str) -> dict:
    """Run ``script`` in a fresh interpreter; its last stdout line,
    decoded from JSON."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loaded_after(statement: str) -> set:
    return set(_run(
        "import contextlib, io, json, sys\n"
        f"{statement}\n"
        "print(json.dumps(sorted(sys.modules)))\n"))


def test_import_repro_leaves_the_other_paths_unloaded():
    loaded = _loaded_after("import repro")
    assert sorted(loaded.intersection(NOT_AT_IMPORT)) == []


def test_import_repro_loads_what_its_calls_run():
    loaded = _loaded_after("import repro")
    assert set(AT_IMPORT) <= loaded


@pytest.mark.parametrize("verb", ["measure", "serve"])
def test_a_verb_leaves_the_other_verbs_unloaded(verb):
    loaded = _loaded_after(
        "from repro import cli\n"
        "with contextlib.suppress(SystemExit), "
        "contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.main([{verb!r}, '--help'])")
    assert sorted(loaded.intersection(NOT_AT_VERB)) == []


_WORK = """
import json, sys
import repro

ref = repro.MachineRef.of("tiny")
before = set(sys.modules)
result = repro.analyze("dgemm-tiled", [16], machine=ref, cache=None, jobs=1)
result.to_json_doc()
after_analyze = set(sys.modules)
plan = repro.SweepPlan()
plan.add_sweep(ref, "daxpy", [256, 512], protocol="cold", reps=1,
               cores=(0,))
run = repro.run_plan(plan, jobs=2, cache=None)
assert run.backend == "pool" and len(run.measurements) == 2
print(json.dumps({
    "analyze": sorted(after_analyze - before),
    "run_plan": sorted(set(sys.modules) - after_analyze),
}))
"""


def test_timed_work_imports_nothing():
    assert _run(_WORK) == {"analyze": [], "run_plan": []}


_TRACE = """
import json, sys
import repro
from repro.kernels.registry import make_kernel
from repro.measure.runner import measure_kernel

machine = repro.MachineRef.of("tiny").build()
unloaded = "repro.trace.collector" not in sys.modules
collector = measure_kernel(machine, make_kernel("daxpy"), 256, reps=1,
                           trace=True).trace
from repro.trace.timeline import TimelineConfig
sampler = measure_kernel(machine, make_kernel("daxpy"), 256, reps=1,
                         trace=TimelineConfig(100.0)).trace
print(json.dumps({
    "unloaded": unloaded,
    "collector": [type(collector).__name__, len(collector.events) > 0],
    "sampler": [type(sampler).__name__, len(sampler.timeline()) > 0],
}))
"""


def test_measure_kernel_loads_its_tracers_on_demand():
    assert _run(_TRACE) == {
        "unloaded": True,
        "collector": ["TraceCollector", True],
        "sampler": ["TimelineSampler", True],
    }


def _packages():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            yield importlib.import_module(info.name)


@pytest.mark.parametrize("package", list(_packages()),
                         ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    listed = dir(package)
    for name in package.__all__:
        assert getattr(package, name) is not None, name
        assert name in listed, name
