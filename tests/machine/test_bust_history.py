"""After ``bust()`` a machine's state no longer depends on its history.

Measurement replay (:mod:`repro.measure.replay`) rests on this: every
session starts from ``bust()``, so a session is a pure function of the
program and the counters.  The fingerprint walks every attribute
reachable from the hierarchy, so a stateful component added without a
reset makes this test fail.
"""

from __future__ import annotations

import pytest

from repro.kernels import Daxpy, Dgemv, Spmv, StreamTriad
from repro.kernels.base import CodegenCaps
from repro.machine.presets import PRESETS, make_machine
from repro.measure import measure_kernel
from tests.machine.fingerprint import machine_fingerprint

#: every preset once (``snb`` aliases ``snb-ep``), shrunk where it scales
SCALES = {"snb-ep": 1 / 64, "snb-ep-x2": 1 / 64, "ivb-desktop": 1 / 64,
          "hsw-ep": 1 / 64}
NAMES = sorted(name for name in PRESETS if name != "snb")


def _machine(name):
    machine = make_machine(name, **({"scale": SCALES[name]}
                                    if name in SCALES else {}))
    # every core (and so every port) exists before any history, in the
    # same order on every machine compared
    for core_id in range(machine.topology.total_cores):
        machine.core(core_id)
    return machine


def _run(machine, kernel, n, core_id):
    caps = CodegenCaps.from_machine(machine)
    program = kernel.build(n, caps)
    node = machine.topology.node_of_core(core_id)
    machine.run(machine.load(program, node=node), core_id=core_id)


def _history_a(machine):
    last = machine.topology.total_cores - 1
    _run(machine, Daxpy(), 4096, 0)
    _run(machine, Spmv(), 512, last)
    measure_kernel(machine, StreamTriad(), 1024, protocol="cold", reps=2)


def _history_b(machine):
    _run(machine, Dgemv(layout="col"), 48, 0)
    measure_kernel(machine, Daxpy(), 512, protocol="warm", reps=1)
    _run(machine, StreamTriad(nt_stores=True), 2048, 0)


def _bust_states(name):
    fresh, a, b = _machine(name), _machine(name), _machine(name)
    _history_a(a)
    _history_b(b)
    states = []
    for machine in (fresh, a, b):
        machine.bust_caches()
        states.append(machine_fingerprint(machine)["state"])
    return states


@pytest.mark.parametrize("name", NAMES)
def test_bust_state_is_independent_of_history(name):
    fresh, a, b = _bust_states(name)
    assert a == fresh
    assert b == fresh


@pytest.mark.parametrize("name", ["tiny", "snb-ep-x2"])
def test_bust_state_is_independent_of_history_on_dict_state(name,
                                                            no_ckernel):
    with no_ckernel():
        fresh, a, b = _bust_states(name)
    assert a == fresh
    assert b == fresh


def test_histories_differ_before_the_bust():
    # the histories really leave different state behind
    a, b = _machine("tiny"), _machine("tiny")
    _history_a(a)
    _history_b(b)
    assert (machine_fingerprint(a)["state"]
            != machine_fingerprint(b)["state"])


def test_fingerprint_covers_a_component_it_does_not_name():
    # a stand-in for a stateful component added without a reset
    fresh, grown = _machine("tiny"), _machine("tiny")
    fresh.hierarchy.l2[1].victim_buffer = []
    grown.hierarchy.l2[1].victim_buffer = [123]
    fresh.bust_caches()
    grown.bust_caches()
    assert (machine_fingerprint(fresh)["state"]
            != machine_fingerprint(grown)["state"])
