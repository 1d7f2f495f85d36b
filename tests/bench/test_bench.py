"""Microbenchmarks: peak flops and bandwidth on the tiny machine."""

import pytest

from repro.bench import (
    bandwidth_methods,
    best_bandwidth,
    default_stream_elements,
    measure_bandwidth,
    measure_peak_flops,
    peak_bandwidth_table,
    peak_flops_program,
    peak_flops_table,
)
from repro.errors import ConfigurationError
from repro.machine.presets import make_machine, tiny_test_machine


class TestPeakFlopsProgram:
    def test_fma_program_flops(self):
        program = peak_flops_program(256, has_fma=True, chains=12, trips=100)
        assert program.static_counts().flops == 12 * 100 * 8

    def test_muladd_program_balanced(self):
        program = peak_flops_program(256, has_fma=False, chains=12, trips=10)
        ops = {}
        for node in program.walk():
            op = getattr(node, "op", None)
            if op:
                ops[op] = ops.get(op, 0) + 1
        assert ops == {"add": 6, "mul": 6}

    def test_no_memory_instructions(self):
        program = peak_flops_program(128, has_fma=False, trips=10)
        assert program.static_counts().mem_ops == 0

    def test_odd_chain_count_rejected(self):
        with pytest.raises(ConfigurationError):
            peak_flops_program(256, False, chains=5)


class TestMeasurePeakFlops:
    def test_single_core_hits_theory(self):
        machine = tiny_test_machine()
        result = measure_peak_flops(machine, 256, cores=(0,), trips=4096)
        assert result.efficiency == pytest.approx(1.0, rel=0.01)
        assert result.flops_per_cycle_per_core == pytest.approx(8.0, rel=0.01)

    def test_two_cores_double_throughput(self):
        machine = tiny_test_machine()
        one = measure_peak_flops(machine, 256, cores=(0,), trips=2048)
        two = measure_peak_flops(machine, 256, cores=(0, 1), trips=2048)
        assert two.flops_per_second == pytest.approx(
            2 * one.flops_per_second, rel=0.01)

    def test_fma_machine_doubles_per_width(self):
        hsw = make_machine("hsw-ep", scale=0.125)
        result = measure_peak_flops(hsw, 256, cores=(0,), trips=2048)
        assert result.flops_per_cycle_per_core == pytest.approx(16.0, rel=0.01)

    def test_unsupported_width_rejected(self):
        with pytest.raises(ConfigurationError):
            measure_peak_flops(tiny_test_machine(), 512)

    def test_table_shape(self):
        machine = tiny_test_machine()
        rows = peak_flops_table(machine, widths=[64, 256],
                                thread_counts=[1, 2], trips=1024)
        assert len(rows) == 4
        assert {(r.width_bits, r.threads) for r in rows} == {
            (64, 1), (64, 2), (256, 1), (256, 2)}


class TestBandwidth:
    def test_methods_list(self):
        assert "triad" in bandwidth_methods()
        assert "memset-nt" in bandwidth_methods()

    def test_default_stream_elements_exceed_caches(self):
        machine = tiny_test_machine()
        n = default_stream_elements(machine)
        assert 8 * n >= 2 * machine.spec.total_cache_bytes()

    def test_nt_memset_beats_regular(self):
        machine = tiny_test_machine()
        nt = measure_bandwidth(machine, "memset-nt", (0,), n=32768, reps=1)
        wa = measure_bandwidth(machine, "memset", (0,), n=32768, reps=1)
        assert nt.bytes_per_second > 1.5 * wa.bytes_per_second

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            measure_bandwidth(tiny_test_machine(), "stream9")

    def test_best_bandwidth_is_max(self):
        machine = tiny_test_machine()
        best = best_bandwidth(machine, (0,), n=32768,
                              methods=("memset", "memset-nt", "read"))
        each = [
            measure_bandwidth(tiny_test_machine(), m, (0,), n=32768, reps=1)
            for m in ("memset", "memset-nt", "read")
        ]
        assert best.bytes_per_second == pytest.approx(
            max(r.bytes_per_second for r in each), rel=0.02)

    def test_two_cores_beat_one(self):
        machine = tiny_test_machine()
        one = measure_bandwidth(machine, "read", (0,), n=32768, reps=1)
        two = measure_bandwidth(machine, "read", (0, 1), n=32768, reps=1)
        assert two.bytes_per_second > 1.2 * one.bytes_per_second

    def test_table_shape(self):
        machine = tiny_test_machine()
        rows = peak_bandwidth_table(machine, methods=("read", "memset"),
                                    thread_counts=[1], n=16384, reps=1)
        assert len(rows) == 2
        assert all(r.threads == 1 for r in rows)
