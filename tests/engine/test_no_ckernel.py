"""Without the C datapath the fast engine walks like the reference engine.

Hosts without a working C compiler, and machines the kernel cannot
model (a non-LRU L3), keep dict state; there the fast engine builds no
access plan and sends every access through the port's per-line calls
on the reference engine's own route (``Core._iter_emissions`` ->
``Core._dispatch``).  These tests pin that path to the reference engine
call for call and counter for counter on registry kernels and the
conformance corpus, and check that a failed kernel load is loud — one
``RuntimeWarning`` naming the reason — while an explicit
``REPRO_CKERNEL=0`` stays silent.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import subprocess
import sys

import pytest

import repro
from repro.engine import ckernel
from repro.kernels import CodegenCaps, make_kernel
from repro.machine.presets import tiny_test_machine
from repro.machine.ref import MachineRef
from repro.oracle import diff_engine_sides, random_program

#: (registry name, two sizes) per parity kernel
NO_KERNEL_KERNELS = [
    ("daxpy", (64, 512)),
    ("dgemm-tiled", (16, 32)),
    ("spmv", (48, 96)),
    ("stencil3", (96, 520)),
    ("triad-nt", (128, 2048)),
    ("ert", (256, 4096)),
]


def _assert_pair_matches(program, no_ckernel):
    """Run ``program`` twice on a no-kernel fast machine and a
    reference machine; every counter, phase and PMU event must agree."""
    with no_ckernel():
        fast = tiny_test_machine()
        ref = tiny_test_machine(engine="reference")
        for _ in range(2):
            fast_r = fast.run(fast.load(program)).result
            ref_r = ref.run(ref.load(program)).result
            divs = diff_engine_sides(fast, fast_r, ref, ref_r, 0)
            assert not divs, "\n".join(str(d) for d in divs)
            assert repr(fast_r.cycles) == repr(ref_r.cycles)
            assert fast_r.phases == ref_r.phases
            assert fast.core_pmu(0).snapshot() == ref.core_pmu(0).snapshot()
        core = fast.core(0)
    assert not fast.hierarchy.array_mode and not core._compiled
    assert core.plan_stats.nest_runs == 0
    assert core.plan_stats.fallbacks["no_ckernel"] > 0


@pytest.mark.parametrize("name,sizes", NO_KERNEL_KERNELS,
                         ids=[name for name, _ in NO_KERNEL_KERNELS])
def test_registry_kernels_match_reference(name, sizes, no_ckernel):
    caps = CodegenCaps.from_machine(tiny_test_machine())
    for n in sizes:
        _assert_pair_matches(make_kernel(name).build(n, caps), no_ckernel)


@pytest.mark.parametrize("seed", range(20))
def test_conformance_corpus_matches_reference(seed, no_ckernel):
    _assert_pair_matches(random_program(random.Random(seed)), no_ckernel)


# ----------------------------------------------------------------------
# no plan, and the reference engine's port calls, one for one
# ----------------------------------------------------------------------
def _spy_port_calls(machine) -> list:
    """Record every per-line port call core 0 makes, in order."""
    calls = []
    port = machine.core(0).port
    for name in ("access_lines", "software_prefetch", "flush_lines"):
        def spy(lines, _name=name, _call=getattr(port, name), **kwargs):
            calls.append((_name, list(lines), sorted(kwargs.items())))
            return _call(lines, **kwargs)
        setattr(port, name, spy)
    return calls


#: (fast, reference) machine factories off the C datapath, and the
#: fallback reason the fast machine counts its walked nodes under
_WALKING_MACHINES = {
    "no-ckernel": (tiny_test_machine,
                   lambda: tiny_test_machine(engine="reference"),
                   "no_ckernel"),
    "fifo-l3": (MachineRef.of("tiny", l3_policy="fifo").build,
                MachineRef.of("tiny", l3_policy="fifo",
                              engine="reference").build,
                "replacement_policy"),
}


@pytest.mark.parametrize("kind", sorted(_WALKING_MACHINES))
@pytest.mark.parametrize("name,n", [("dgemm-tiled", 16), ("spmv", 48)])
def test_fast_engine_makes_the_reference_port_calls(kind, name, n,
                                                    no_ckernel):
    scope = no_ckernel() if kind == "no-ckernel" else contextlib.nullcontext()
    fast_build, ref_build, reason = _WALKING_MACHINES[kind]
    with scope:
        fast, ref = fast_build(), ref_build()
        program = make_kernel(name).build(n, CodegenCaps.from_machine(fast))
        fast_calls = _spy_port_calls(fast)
        ref_calls = _spy_port_calls(ref)
        for machine in (fast, ref):
            machine.run(machine.load(program))
    core = fast.core(0)
    assert fast.engine == "fast" and not fast.hierarchy.array_mode
    assert not core._compiled
    assert len(core.plan_cache) == 0
    assert core.plan_stats.built_lines == 0
    assert fast_calls and fast_calls == ref_calls
    # the walked nodes count under the machine's real reason alone
    fallbacks = core.plan_stats.fallbacks
    assert fallbacks[reason] > 0
    assert sum(fallbacks.values()) == fallbacks[reason]


# ----------------------------------------------------------------------
# a failed kernel load is loud, an explicit opt-out is not
# ----------------------------------------------------------------------
_PROBE = """
import json, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from repro.engine import ckernel
    from repro.kernels import make_kernel
    from repro.machine.presets import tiny_test_machine
    from repro.measure import measure_kernel
    ckernel.lib()
    measure_kernel(tiny_test_machine(), make_kernel("daxpy"), 64, reps=1)
    ckernel.lib()
print(json.dumps([[w.category.__name__, str(w.message)] for w in caught
                  if issubclass(w.category, RuntimeWarning)]))
"""


def _probe(tmp_path, script=_PROBE, **env):
    """The last stdout line of ``script`` (by default the
    RuntimeWarnings raised by a fresh interpreter that builds the kernel
    into an empty cache and measures daxpy), decoded from JSON."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    full = dict(os.environ)
    full.pop("REPRO_CKERNEL", None)
    full.update(env,
                REPRO_CKERNEL_CACHE=str(tmp_path / "ckernel"),
                PYTHONPATH=os.pathsep.join(
                    filter(None, [src, full.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=full,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_failed_compile_warns_once_with_the_reason(tmp_path):
    caught = _probe(tmp_path, CC="false")
    assert len(caught) == 1, caught
    category, message = caught[0]
    assert category == "RuntimeWarning"
    assert "compiling _ckernel.c with 'false' failed (exit 1)" in message
    assert "per-line walk" in message and "about 100x slower" in message


def test_compiler_stderr_tail_is_in_the_warning(tmp_path):
    cc = tmp_path / "broken-cc"
    cc.write_text("#!/bin/sh\necho 'ckernel.c:1: error: no luck' >&2\n"
                  "exit 3\n")
    cc.chmod(0o755)
    (message,) = [m for _c, m in _probe(tmp_path, CC=str(cc))]
    assert "failed (exit 3): ckernel.c:1: error: no luck" in message


def test_explicit_opt_out_is_silent(tmp_path):
    assert _probe(tmp_path, CC="false", REPRO_CKERNEL="0") == []


# ----------------------------------------------------------------------
# ckernel.status(): loaded, disabled on purpose, or failed with a reason
# ----------------------------------------------------------------------
_STATUS_PROBE = """
import json, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from repro.engine import ckernel
    state, reason = ckernel.status()
print(json.dumps({"state": state, "reason": reason,
                  "available": ckernel.available(),
                  "warnings": [str(w.message) for w in caught]}))
"""


@pytest.mark.skipif(not ckernel.available(),
                    reason="the C kernel did not load")
def test_status_of_a_loaded_kernel():
    assert ckernel.status() == (ckernel.LOADED, None)


def test_status_of_an_explicit_opt_out(tmp_path):
    probe = _probe(tmp_path, _STATUS_PROBE, CC="false", REPRO_CKERNEL="0")
    assert probe == {"state": ckernel.DISABLED, "reason": None,
                     "available": False, "warnings": []}


def test_status_of_a_failed_load_carries_the_warnings_reason(tmp_path):
    probe = _probe(tmp_path, _STATUS_PROBE, CC="false")
    assert probe["state"] == ckernel.FAILED and not probe["available"]
    reason = probe["reason"]
    assert reason.startswith("compiling _ckernel.c with 'false' failed")
    (message,) = probe["warnings"]
    assert message.startswith(f"C kernel unavailable: {reason}; ")


# ----------------------------------------------------------------------
# the load state reaches the metrics exports
# ----------------------------------------------------------------------
_GAUGE_PROBE = """
import json, warnings
warnings.simplefilter("ignore")
from repro.kernels import make_kernel
from repro.machine.presets import tiny_test_machine
from repro.measure import measure_kernel
from repro.obs.metrics import REGISTRY
measure_kernel(tiny_test_machine(), make_kernel("daxpy"), 64, reps=1)
print(json.dumps([line for line in REGISTRY.to_prometheus().splitlines()
                  if line.startswith("repro_ckernel_status{")]))
"""


def _gauge_lines(state: str) -> list:
    return [f'repro_ckernel_status{{state="{each}"}} {int(each == state)}'
            for each in sorted((ckernel.DISABLED, ckernel.FAILED,
                                ckernel.LOADED))]


@pytest.mark.parametrize("env,state", [
    ({"REPRO_CKERNEL": "0"}, ckernel.DISABLED),
    ({}, ckernel.FAILED),
], ids=["opt-out", "failed-load"])
def test_a_measurement_exports_the_load_state(tmp_path, env, state):
    # CC=false: a kernel the opt-out would not load fails to build
    assert _probe(tmp_path, _GAUGE_PROBE, CC="false", **env) == \
        _gauge_lines(state)


@pytest.mark.skipif(not ckernel.available(),
                    reason="the C kernel did not load")
def test_a_loaded_kernel_exports_its_state():
    from repro.measure import measure_kernel
    from repro.measure.runner import counting_into
    from repro.obs.metrics import MetricsRegistry

    with counting_into(MetricsRegistry()) as registry:
        measure_kernel(tiny_test_machine(), make_kernel("daxpy"), 64, reps=1)
    assert [line for line in registry.to_prometheus().splitlines()
            if line.startswith("repro_ckernel_status{")] == \
        _gauge_lines(ckernel.LOADED)
