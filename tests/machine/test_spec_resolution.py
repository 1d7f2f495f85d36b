"""A machine recipe resolves to its spec without building a machine.

``MachineRef.spec()`` is the platform's static description with every
override applied; ``MachineRef.build()`` builds exactly one machine
from it.  Readers that need only the shape (core lists, ERT working
sets, figure grids, the pool's cost estimate) read the spec and build
nothing.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig, make_experiment
from repro.machine import machine as machine_module
from repro.machine.presets import PRESETS
from repro.machine.ref import MachineRef
from repro.memory import cache as cache_module
from repro.roofline.ert import ert_plan
from repro.sweep import SweepPoint, make_grid


def _count(monkeypatch, run):
    """``(result, machines, caches)`` constructed while ``run()`` ran."""
    counts = {"machines": 0, "caches": 0}

    def counting(patch, cls, key):
        init = cls.__init__

        def wrapped(self, *args, **kwargs):
            counts[key] += 1
            init(self, *args, **kwargs)
        patch.setattr(cls, "__init__", wrapped)

    with monkeypatch.context() as patch:
        counting(patch, machine_module.Machine, "machines")
        counting(patch, cache_module.Cache, "caches")
        result = run()
    return result, counts["machines"], counts["caches"]


def test_an_overridden_ref_builds_one_machine(monkeypatch):
    ref = MachineRef.of("snb", scale=0.125, l3_policy="fifo")
    machine, machines, caches = _count(monkeypatch, ref.build)
    # 8 private L1s and L2s plus one L3
    assert (machines, caches) == (1, 17)
    assert machine.spec.hierarchy.l3.policy == "fifo"


_READERS = {
    "ert_plan": ert_plan,
    "make_grid": lambda ref: make_grid("f4", ref),
    "cores": lambda ref: ref.cores(2),
    "predicted_work": lambda ref: SweepPoint(
        machine=ref, kernel="daxpy", n=4096).predicted_work(),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_shape_readers_build_no_machine(monkeypatch, reader):
    # a ref of its own per reader, built by no other test, so nothing
    # earlier in the process can have resolved its shape
    mlp = 7.0 + sorted(_READERS).index(reader) / 8
    ref = MachineRef.of("hsw-ep", scale=0.125, timing={"mlp": mlp})
    result, machines, caches = _count(monkeypatch,
                                      lambda: _READERS[reader](ref))
    assert result
    assert (machines, caches) == (0, 0)


def test_the_platform_table_builds_no_machine(monkeypatch):
    config = ExperimentConfig(scale=0.125)
    result, machines, caches = _count(
        monkeypatch, lambda: make_experiment("T1").run(config))
    assert result.passed
    assert (machines, caches) == (0, 0)


_OVERRIDES = {
    "none": {},
    "fifo": {"l3_policy": "fifo"},
    "plru": {"l3_policy": "plru"},
    "timing": {"timing": {"reissue_hide_cycles": 10_000}},
}


@pytest.mark.parametrize("override", sorted(_OVERRIDES))
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_the_spec_is_the_built_machines_spec(preset, override):
    ref = MachineRef.named(preset, 1 / 64).with_overrides(
        **_OVERRIDES[override])
    assert ref.spec() == ref.build().spec


def test_an_unknown_timing_key_is_a_configuration_error():
    ref = MachineRef.of("snb", scale=0.125, timing={"bogus": 1})
    with pytest.raises(ConfigurationError, match="bogus"):
        ref.spec()
    with pytest.raises(ConfigurationError, match="bogus"):
        ref.build()

