"""Measurement methodology: protocols, subtraction, statistics."""

import pytest

from repro.errors import ConfigurationError, MeasurementError
from repro.kernels import Daxpy, Dgemm, StreamTriad
from repro.machine.presets import tiny_test_machine
from repro.measure import (
    ColdCache,
    WarmCache,
    build_init_program,
    make_protocol,
    measure_kernel,
    measure_sweep,
    relative_error,
    summarize,
)
from tests.conftest import needs_ckernel


class TestStats:
    def test_summary_fields(self):
        summary = summarize([3.0, 1.0, 2.0])
        assert summary.median == 2.0
        assert summary.mean == 2.0
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.count == 3
        assert summary.spread == 1.0

    def test_empty_rejected(self):
        with pytest.raises(MeasurementError):
            summarize([])

    def test_relative_error(self):
        assert relative_error(110.0, 100.0) == pytest.approx(0.10)
        with pytest.raises(MeasurementError):
            relative_error(1.0, 0.0)


class TestProtocols:
    def test_make_protocol(self):
        assert isinstance(make_protocol("cold"), ColdCache)
        assert isinstance(make_protocol("warm"), WarmCache)
        proto = WarmCache(warmups=2)
        assert make_protocol(proto) is proto
        with pytest.raises(MeasurementError):
            make_protocol("lukewarm")

    def test_cold_drop_empties_caches(self, tiny):
        from tests.conftest import build_triad
        loaded = tiny.load(build_triad(256))
        tiny.run(loaded, core_id=0)
        ColdCache(method="drop").prepare(tiny, lambda: None)
        assert tiny.hierarchy.l1[0].occupancy() == 0

    def test_cold_sweep_evicts_kernel_data(self, tiny):
        from tests.conftest import build_triad
        program = build_triad(64)  # 1 KiB: would stay L1-resident
        loaded = tiny.load(program)
        tiny.run(loaded, core_id=0)
        x_line = loaded.buffer_map["x"].base // 64
        assert tiny.hierarchy.l1[0].contains(x_line)
        ColdCache(method="sweep").prepare(tiny, lambda: None)
        assert not tiny.hierarchy.l1[0].contains(x_line)
        assert not tiny.hierarchy.l3[0].contains(x_line)

    def test_warm_runs_kernel(self, tiny):
        calls = []
        WarmCache(warmups=3).prepare(tiny, lambda: calls.append(1))
        assert len(calls) == 3

    def test_warm_requires_positive_warmups(self):
        with pytest.raises(MeasurementError):
            WarmCache(warmups=0)

    def test_bad_cold_method(self):
        with pytest.raises(MeasurementError):
            ColdCache(method="reboot")


class TestInitProgram:
    def test_touches_every_line(self):
        program = build_init_program({"x": 4096, "y": 130})
        counts = program.static_counts()
        assert counts.stores == 4096 // 64 + 2 + 1  # y: 2 line stores + tail
        program.check_bounds()

    def test_tiny_buffer(self):
        program = build_init_program({"x": 8})
        assert program.static_counts().stores == 1


class TestMeasureKernel:
    def test_warm_measurement_is_exact(self, tiny):
        m = measure_kernel(tiny, Daxpy(), 64, protocol="warm", reps=2)
        assert m.work_overcount == pytest.approx(1.0, abs=0.02)
        assert m.true_flops == 128
        assert m.protocol == "warm"
        assert m.runtime_seconds > 0

    def test_cold_measurement_overcounts(self, tiny):
        m = measure_kernel(tiny, Daxpy(), 8192, protocol="cold", reps=1)
        assert m.work_overcount > 1.3
        assert m.traffic_bytes > 0.7 * m.compulsory_bytes

    def test_subtraction_removes_setup_traffic(self, tiny):
        """Measured Q must be close to the kernel's own traffic, far
        below the raw session traffic that includes init stores."""
        n = 8192
        m = measure_kernel(tiny, Daxpy(), n, protocol="cold", reps=1)
        assert m.traffic_bytes < 1.5 * m.compulsory_bytes

    def test_parallel_measurement(self, tiny):
        m = measure_kernel(tiny, Daxpy(), 8192, protocol="cold",
                           cores=(0, 1), reps=1)
        assert m.threads == 2
        assert m.true_flops == 2 * 8192

    def test_reps_validated(self, tiny):
        with pytest.raises(MeasurementError):
            measure_kernel(tiny, Daxpy(), 64, reps=0)

    def test_measurement_derived_properties(self, tiny):
        m = measure_kernel(tiny, Daxpy(), 4096, protocol="cold", reps=1)
        assert m.performance == m.true_flops / m.runtime_seconds
        assert m.intensity == pytest.approx(
            m.true_flops / max(m.traffic_bytes, 64.0))
        assert m.traffic_ratio == m.traffic_bytes / m.compulsory_bytes
        assert "daxpy" in m.label()

    def test_zero_traffic_intensity_floored(self, tiny):
        m = measure_kernel(tiny, Daxpy(), 64, protocol="warm", reps=1)
        assert m.intensity <= m.true_flops / 64.0

    def test_llc_bytes_populated(self, tiny):
        tiny.prefetch_control.disable_all()
        m = measure_kernel(tiny, Daxpy(), 8192, protocol="cold", reps=1)
        # prefetch off: LLC demand misses carry all the read traffic
        assert m.llc_bytes == pytest.approx(16 * 8192, rel=0.05)

    def test_sweep(self, tiny):
        ms = measure_sweep(tiny, Daxpy(), [64, 128], protocol="warm", reps=1)
        assert [m.n for m in ms] == [64, 128]

    def test_summaries_attached(self, tiny):
        m = measure_kernel(tiny, Daxpy(), 256, protocol="warm", reps=3)
        assert m.work_summary.count == 3
        assert m.runtime_summary.count == 3


@needs_ckernel
def test_run_too_large_for_host_memory_is_a_configuration_error(
        host_refuses_huge_tables):
    # fits the 1 TiB simulated address space, but its first phase would
    # reserve a prefetched-line table far beyond the host's memory
    n = (1 << 36) - 512
    with pytest.raises(ConfigurationError,
                       match=rf"^daxpy: n={n}: the prefetched-line table "
                             r"needs \d+ slots \(\d+ bytes\), which host "
                             r"memory cannot map: Cannot allocate memory$"):
        measure_kernel(tiny_test_machine(), Daxpy(), n, reps=1)
