"""MachineRef: picklable machine recipes and their rebuild guarantee.

The sweep engine ships *recipes* across process boundaries, never live
machines, and the experiment config describes its platform the same
way (the old ``machine_factory`` callable could not be pickled at
all).  These tests pin the contract: refs round-trip through pickle,
equal refs build behaviourally identical machines, and overrides are
part of the identity.
"""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig
from repro.machine.ref import MachineRef
from repro.sweep import SweepPlan, SweepPoint, SweepStats

pytestmark = pytest.mark.sweep


REFS = [
    MachineRef.of("tiny"),
    MachineRef.of("snb-ep", scale=0.125),
    MachineRef.of("snb-ep", scale=0.0625, sockets=2),
    MachineRef.of("snb-ep", scale=0.125).with_overrides(l3_policy="plru"),
    MachineRef.of("snb-ep", scale=0.125).with_overrides(
        timing={"reissue_interval_cycles": 64, "max_reissue_per_miss": 2},
        prefetch_enabled=False,
    ),
]


class TestPickle:
    @pytest.mark.parametrize("ref", REFS, ids=lambda r: r.describe())
    def test_ref_round_trips(self, ref):
        clone = pickle.loads(pickle.dumps(ref))
        assert clone == ref
        assert clone.key_doc() == ref.key_doc()

    def test_sweep_point_and_plan_round_trip(self):
        plan = SweepPlan()
        plan.add_sweep(REFS[1], "dgemv-col", [32, 64], protocol="warm",
                       reps=2, kernel_args=None)
        plan.add(SweepPoint(machine=REFS[0], kernel="spmv", n=512,
                            kernel_args=(("bandwidth", 64),
                                         ("row_nnz", 4))))
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.points == plan.points

    def test_experiment_config_round_trips(self):
        config = ExperimentConfig(reps=1,
                                  machine_ref=MachineRef.of("tiny"),
                                  jobs=2, cache=False,
                                  stats=SweepStats())
        clone = pickle.loads(pickle.dumps(config))
        assert clone.machine_ref == config.machine_ref
        assert clone.jobs == 2 and clone.cache is False
        assert clone.ref() == config.ref()


class TestRebuild:
    def test_equal_refs_build_identical_specs(self):
        ref = MachineRef.of("snb-ep", scale=0.0625)
        a, b = ref.build(), pickle.loads(pickle.dumps(ref)).build()
        assert a.spec == b.spec

    def test_overrides_take_effect(self):
        base = MachineRef.of("snb-ep", scale=0.125)
        plru = base.with_overrides(l3_policy="plru").build()
        assert plru.spec.hierarchy.l3.policy == "plru"
        timed = base.with_overrides(
            timing={"reissue_hide_cycles": 10_000}).build()
        assert timed.spec.timing.reissue_hide_cycles == 10_000
        quiet = base.with_overrides(prefetch_enabled=False).build()
        assert not any(quiet.prefetch_control.state().values())

    def test_overrides_change_equality(self):
        base = MachineRef.of("snb-ep", scale=0.125)
        assert base.with_overrides(l3_policy="plru") != base
        assert base.with_overrides(prefetch_enabled=False) != base

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineRef.of("pentium-3")

    def test_bad_options_rejected_at_build(self):
        ref = MachineRef("tiny", options=(("sockets", 2),))
        with pytest.raises(ConfigurationError):
            ref.build()


class TestConfigPlatform:
    def test_custom_ref_wins(self):
        config = ExperimentConfig(machine_ref=MachineRef.of("tiny"))
        assert config.ref().preset == "tiny"
        assert config.machine().spec.name.startswith("tiny")

    def test_default_is_scaled_snb(self):
        config = ExperimentConfig(scale=0.0625)
        ref = config.ref()
        assert ref.preset == "snb-ep"
        assert dict(ref.options)["scale"] == 0.0625
        two = config.ref(sockets=2)
        assert dict(two.options)["sockets"] == 2
