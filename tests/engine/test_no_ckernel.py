"""The no-kernel datapath: dict state, concrete plans, segment replay.

Hosts without a working C compiler run the fast engine on the exact
segment fallback (``BatchDatapath._execute_segments``).  These tests
pin that path to the per-line reference engine counter for counter on
registry kernels and the conformance corpus, and check that a failed
kernel load is loud — one ``RuntimeWarning`` naming the reason — while
an explicit ``REPRO_CKERNEL=0`` stays silent.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

import repro
from repro.kernels import CodegenCaps, make_kernel
from repro.machine.presets import tiny_test_machine
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
    assert not core._datapath._use_c
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


def _probe(tmp_path, **env):
    """RuntimeWarnings raised by a fresh interpreter that builds the
    kernel into an empty cache and measures daxpy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    full = dict(os.environ)
    full.pop("REPRO_CKERNEL", None)
    full.update(env,
                REPRO_CKERNEL_CACHE=str(tmp_path / "ckernel"),
                PYTHONPATH=os.pathsep.join(
                    filter(None, [src, full.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=full,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_failed_compile_warns_once_with_the_reason(tmp_path):
    caught = _probe(tmp_path, CC="false")
    assert len(caught) == 1, caught
    category, message = caught[0]
    assert category == "RuntimeWarning"
    assert "compiling _ckernel.c with 'false' failed (exit 1)" in message
    assert "segment replay" in message and "30x slower" in message


def test_compiler_stderr_tail_is_in_the_warning(tmp_path):
    cc = tmp_path / "broken-cc"
    cc.write_text("#!/bin/sh\necho 'ckernel.c:1: error: no luck' >&2\n"
                  "exit 3\n")
    cc.chmod(0o755)
    (message,) = [m for _c, m in _probe(tmp_path, CC=str(cc))]
    assert "failed (exit 3): ckernel.c:1: error: no luck" in message


def test_explicit_opt_out_is_silent(tmp_path):
    assert _probe(tmp_path, CC="false", REPRO_CKERNEL="0") == []
