"""Machine assembly: loading, running, parallel contention, clocks."""

import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.kernels import CodegenCaps, Daxpy
from repro.machine.presets import tiny_test_machine
from tests.conftest import build_read_sweep, build_triad


class TestLoad:
    def test_buffers_mapped_distinctly(self, tiny):
        program = build_triad(256)
        loaded = tiny.load(program)
        assert set(loaded.buffer_map) == {"x", "y"}
        regions = list(loaded.buffer_map.values())
        assert regions[0].base != regions[1].base

    def test_same_program_loaded_twice_gets_new_addresses(self, tiny):
        program = build_triad(64)
        a = tiny.load(program)
        b = tiny.load(program)
        assert a.buffer_map["x"].base != b.buffer_map["x"].base

    def test_node_binding(self):
        from repro.machine.presets import make_machine
        machine = make_machine("snb-ep-x2", scale=0.125)
        loaded = machine.load(build_triad(64), node=1)
        assert all(a.node == 1 for a in loaded.buffer_map.values())

    def test_bad_node_rejected(self, tiny):
        with pytest.raises(ConfigurationError):
            tiny.load(build_triad(64), node=5)


class TestRun:
    def test_run_advances_tsc(self, tiny):
        loaded = tiny.load(build_triad(256))
        before = tiny.tsc
        run = tiny.run(loaded, core_id=0)
        assert tiny.tsc == before + run.cycles
        assert run.seconds == run.cycles / tiny.spec.base_hz

    def test_result_property_single_core(self, tiny):
        loaded = tiny.load(build_triad(64))
        run = tiny.run(loaded, core_id=0)
        assert run.result.true_flops == 128

    def test_unknown_core_rejected(self, tiny):
        loaded = tiny.load(build_triad(64))
        with pytest.raises(ConfigurationError):
            tiny.run(loaded, core_id=9)

    def test_advance_tsc_manual(self, tiny):
        tiny.advance_tsc(1000)
        assert tiny.tsc == 1000
        with pytest.raises(ExecutionError):
            tiny.advance_tsc(-1)


class TestRunParallel:
    def test_duplicate_core_rejected(self, tiny):
        loaded = tiny.load(build_triad(64))
        with pytest.raises(ExecutionError):
            tiny.run_parallel([(loaded, 0), (loaded, 0)])

    def test_empty_jobs_rejected(self, tiny):
        with pytest.raises(ExecutionError):
            tiny.run_parallel([])

    def test_wall_time_is_slowest_core(self, tiny):
        big = tiny.load(build_read_sweep(64 * 1024))
        small = tiny.load(build_read_sweep(1024))
        run = tiny.run_parallel([(big, 0), (small, 1)])
        assert run.cycles == max(r.cycles for r in run.per_core.values())
        assert run.active_cores == 2

    def test_result_property_rejects_parallel(self, tiny):
        a = tiny.load(build_triad(64))
        b = tiny.load(build_triad(64))
        run = tiny.run_parallel([(a, 0), (b, 1)])
        with pytest.raises(ExecutionError):
            run.result

    def test_dram_contention_slows_streams(self, tiny):
        """Two cores streaming together: each gets half the node
        bandwidth, so per-core time grows vs a solo run."""
        solo_machine = tiny_test_machine()
        solo = solo_machine.run(
            solo_machine.load(build_read_sweep(256 * 1024)), core_id=0
        )
        pair_machine = tiny_test_machine()
        a = pair_machine.load(build_read_sweep(256 * 1024))
        b = pair_machine.load(build_read_sweep(256 * 1024))
        pair = pair_machine.run_parallel([(a, 0), (b, 1)])
        assert pair.cycles > 1.3 * solo.cycles

    def test_total_true_flops_sums_cores(self, tiny):
        a = tiny.load(build_triad(256))
        b = tiny.load(build_triad(256))
        run = tiny.run_parallel([(a, 0), (b, 1)])
        assert run.total_true_flops == 2 * 512

    def test_run_on_cores_factory(self, tiny):
        caps = CodegenCaps.from_machine(tiny)
        kernel = Daxpy()
        run = tiny.run_on_cores(
            lambda rank, nranks: kernel.build(256, caps, rank, nranks),
            core_ids=[0, 1],
        )
        assert run.active_cores == 2
        assert run.total_true_flops == 2 * 256


class TestTurboInteraction:
    def test_turbo_raises_frequency_for_few_cores(self, tiny):
        tiny.governor.enable_turbo()
        loaded = tiny.load(build_triad(64))
        run = tiny.run(loaded, core_id=0)
        assert run.frequency_hz == 1.5e9  # tiny's 1-core turbo step

    def test_turbo_disabled_is_base(self, tiny):
        loaded = tiny.load(build_triad(64))
        run = tiny.run(loaded, core_id=0)
        assert run.frequency_hz == tiny.spec.base_hz


class TestTheoretical:
    def test_peak_flops(self, tiny):
        # SNB-like: 8 flops/cycle AVX at 1 GHz
        assert tiny.spec.theoretical_peak_flops() == 8e9
        assert tiny.spec.theoretical_peak_flops(128, cores=2) == 8e9

    def test_peak_bandwidth(self, tiny):
        assert tiny.spec.theoretical_peak_bandwidth() == 8e9
        with pytest.raises(ConfigurationError):
            tiny.spec.theoretical_peak_bandwidth(nodes=2)

    def test_repr(self, tiny):
        assert "tiny" in repr(tiny)
