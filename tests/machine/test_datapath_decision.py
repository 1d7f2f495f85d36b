"""A machine's datapath is decided once, when the machine is built.

The fast engine on a host with the C kernel and an all-LRU hierarchy
gets the array state the kernel writes, and only that state; every
other machine keeps dict/ways state and walks.  Nothing after
construction changes the choice: the engine is read-only, and replay
eligibility reads the same answer before and after the cores exist.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.machine.presets import make_machine, tiny_test_machine
from repro.machine.ref import MachineRef, apply_l3_policy
from repro.measure import make_protocol
from repro.measure.replay import _skip_reason
from repro.memory import cache as cache_module
from repro.memory.hierarchy import MemoryHierarchy
from tests.conftest import needs_ckernel


def _count_caches(monkeypatch, build):
    """``(machine, backends)``: every ``Cache`` that ``build()`` made."""
    made = []
    init = cache_module.Cache.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)
    monkeypatch.setattr(cache_module.Cache, "__init__", counting)
    machine = build()
    monkeypatch.setattr(cache_module.Cache, "__init__", init)
    return machine, [cache._backend for cache in made]


def _backends(machine) -> set:
    hier = machine.hierarchy
    return {cache._backend for cache in hier.l1 + hier.l2 + hier.l3}


@needs_ckernel
def test_fast_machine_builds_array_state_and_nothing_else(monkeypatch):
    machine, backends = _count_caches(
        monkeypatch, lambda: make_machine("snb", scale=0.125))
    # 8 private L1s and L2s plus one L3, each built once
    assert machine.hierarchy.array_mode and not machine._cores
    assert backends == ["array"] * 17
    assert machine.walk_reason is None
    assert machine.core(0)._compiled


@pytest.mark.parametrize("kind,reason,backends", [
    ("reference", "reference_engine", {"dict"}),
    ("fifo-l3", "replacement_policy", {"dict", "ways"}),
])
def test_walking_machines_hold_dict_state(kind, reason, backends):
    ref = (MachineRef.of("tiny", engine="reference") if kind == "reference"
           else MachineRef.of("tiny", l3_policy="fifo"))
    machine = ref.build()
    assert not machine.hierarchy.array_mode
    assert machine.walk_reason == reason
    assert _backends(machine) == backends
    assert not machine.core(0)._compiled


def test_machine_without_the_kernel_holds_dict_state(no_ckernel):
    with no_ckernel():
        machine = tiny_test_machine()
    assert not machine.hierarchy.array_mode
    assert machine.walk_reason == "no_ckernel"
    assert _backends(machine) == {"dict"}


def test_engine_is_read_only():
    machine = tiny_test_machine()
    with pytest.raises(AttributeError):
        machine.engine = "reference"
    assert machine.engine == "fast"


def test_array_state_rejects_a_non_lru_level():
    spec = apply_l3_policy(tiny_test_machine(engine="reference").spec,
                           "fifo")
    with pytest.raises(ConfigurationError, match="LRU"):
        MemoryHierarchy(spec.hierarchy, spec.topology, array=True)


def test_array_state_rejects_a_custom_prefetcher_set():
    spec = tiny_test_machine(engine="reference").spec
    with pytest.raises(ConfigurationError, match="prefetcher"):
        MemoryHierarchy(spec.hierarchy, spec.topology,
                        prefetch_factory=list, array=True)


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_replay_eligibility_needs_no_core(engine):
    proto = make_protocol("cold")
    fresh = tiny_test_machine(engine=engine)
    built = tiny_test_machine(engine=engine)
    built.core(0)
    built.core(1)
    assert not fresh._cores
    assert _skip_reason(fresh, proto) == _skip_reason(built, proto)
    if engine == "reference":
        assert _skip_reason(fresh, proto) == "engine"
