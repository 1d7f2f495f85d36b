"""Preset machine definitions."""

import pytest

from repro.errors import ConfigurationError
from repro.machine.ref import MachineRef
from repro.machine.presets import (
    PRESETS,
    dual_socket_ep_spec,
    haswell_node_spec,
    ivy_bridge_desktop_spec,
    make_machine,
    paper_machine,
    sandy_bridge_ep_spec,
    tiny_spec,
)


class TestSandyBridge:
    def test_shape(self):
        spec = sandy_bridge_ep_spec()
        assert spec.topology.total_cores == 8
        assert spec.ports.max_simd_width == 256
        assert not spec.ports.has_fma
        assert spec.base_hz == 2.7e9

    def test_datasheet_numbers(self):
        spec = sandy_bridge_ep_spec()
        # 8 flops/cycle * 2.7 GHz
        assert spec.theoretical_peak_flops() == pytest.approx(21.6e9)
        assert spec.theoretical_peak_bandwidth() == pytest.approx(51.2e9)

    def test_full_scale_cache_sizes(self):
        hierarchy = sandy_bridge_ep_spec().hierarchy
        assert hierarchy.l1.size_bytes == 32 * 1024
        assert hierarchy.l2.size_bytes == 256 * 1024
        assert hierarchy.l3.size_bytes == 20 * 1024 * 1024

    def test_scaling_shrinks_caches_only(self):
        full = sandy_bridge_ep_spec()
        scaled = sandy_bridge_ep_spec(scale=0.125)
        assert (scaled.hierarchy.l3.size_bytes
                == full.hierarchy.l3.size_bytes // 8)
        assert scaled.base_hz == full.base_hz
        assert (scaled.hierarchy.dram.bytes_per_cycle_total
                == full.hierarchy.dram.bytes_per_cycle_total)

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            sandy_bridge_ep_spec(scale=0.0)
        with pytest.raises(ConfigurationError):
            sandy_bridge_ep_spec(scale=2.0)

    def test_nan_scale_rejected(self):
        with pytest.raises(ConfigurationError, match=r"scale must be in"):
            make_machine("snb-ep", scale=float("nan"))
        with pytest.raises(ConfigurationError, match=r"scale must be in"):
            MachineRef.named("snb", float("nan")).spec()

    def test_socket_count_is_in_the_name(self):
        assert sandy_bridge_ep_spec(scale=0.125).name == "snb-ep@0.125"
        assert sandy_bridge_ep_spec(sockets=2).name == "snb-epx2"
        three = sandy_bridge_ep_spec(scale=0.125, sockets=3)
        assert three.topology.sockets == 3
        assert three.name == "snb-epx3@0.125"
        assert dual_socket_ep_spec(scale=0.125).name == "snb-epx2@0.125"


class TestOtherPresets:
    def test_dual_socket(self):
        machine = make_machine("snb-ep-x2", scale=0.25)
        assert machine.topology.sockets == 2
        assert machine.topology.total_cores == 16
        assert machine.spec.theoretical_peak_bandwidth(2) == pytest.approx(
            2 * machine.spec.theoretical_peak_bandwidth(1))

    def test_haswell_has_fma_and_double_peak(self):
        hsw = haswell_node_spec()
        snb = sandy_bridge_ep_spec()
        assert hsw.ports.has_fma
        per_cycle_hsw = hsw.theoretical_peak_flops() / hsw.base_hz
        per_cycle_snb = snb.theoretical_peak_flops() / snb.base_hz
        assert per_cycle_hsw == 2 * per_cycle_snb

    def test_ivy_bridge(self):
        spec = ivy_bridge_desktop_spec()
        assert spec.topology.total_cores == 4
        assert spec.base_hz == 3.4e9

    def test_tiny_is_fast_to_saturate(self):
        assert tiny_spec().total_cache_bytes() < 64 * 1024

    def test_paper_machine_is_eighth_scale_snb(self):
        machine = paper_machine()
        assert "snb" in machine.spec.name
        assert machine.spec.hierarchy.l1.size_bytes == 4096


class TestRegistry:
    def test_all_presets_instantiate(self):
        for name in PRESETS:
            machine = make_machine(name, scale=0.25)
            assert machine.topology.total_cores >= 1

    def test_oracle_preset_matches_analytic_oracle(self):
        from repro.oracle.analytic import oracle_machine

        preset = make_machine("oracle")
        assert preset.spec == oracle_machine().spec
        assert preset.topology.total_cores == 1
        assert preset.spec.noise_lines_per_megacycle == 0.0

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            make_machine("pentium4")
