"""End-to-end integration: the full user workflow on small machines."""

import pytest

from repro.kernels import CodegenCaps, Daxpy, Dgemm
from repro.machine.presets import make_machine, tiny_test_machine
from repro.measure import measure_kernel
from repro.roofline import (
    KernelPoint,
    Trajectory,
    analyze_point,
    ascii_plot,
    build_roofline,
    svg_plot,
)


@pytest.fixture(scope="module")
def small_snb():
    """A 1/32-scale SNB socket shared by this module's tests."""
    return make_machine("snb-ep", scale=0.03125)


class TestQuickstartFlow:
    def test_model_measure_plot_analyze(self, small_snb):
        machine = small_snb
        model = build_roofline(machine, cores=(0,), trips=2048,
                               stream_elements=65536,
                               bandwidth_methods=("memset-nt", "read"))
        assert model.peak_flops == pytest.approx(21.6e9, rel=0.02)
        n = 4 * machine.spec.hierarchy.l3.size_bytes // 16
        n -= n % 32
        m = measure_kernel(machine, Daxpy(), n, protocol="cold", reps=1)
        point = KernelPoint.from_measurement(m)
        text = ascii_plot(model, points=[point])
        assert "daxpy" in text
        analysis = analyze_point(model, point)
        assert analysis.bound == "memory-bound"
        svg = svg_plot(model, trajectories=[Trajectory("daxpy", [point])])
        assert "<svg" in svg


class TestParallelFlow:
    def test_parallel_speedup_shape(self, small_snb):
        machine = small_snb
        kernel = Dgemm(variant="tiled")
        seq = measure_kernel(machine, kernel, 64, protocol="warm", reps=1)
        par = measure_kernel(machine, kernel, 64, protocol="warm", reps=1,
                             cores=tuple(range(8)))
        assert par.performance > 3 * seq.performance


class TestNumaFlow:
    def test_two_socket_measurement(self):
        machine = make_machine("snb-ep-x2", scale=0.0625)
        cores = machine.topology.first_cores(16)
        n = 8 * machine.spec.hierarchy.l3.size_bytes // 16
        n -= n % (32 * 16)
        m = measure_kernel(machine, Daxpy(), n, protocol="cold", reps=1,
                           cores=cores)
        assert m.threads == 16
        # both nodes' controllers saw traffic (memory was bound per node)
        reads = [machine.hierarchy.dram[i].counters.cas_reads
                 for i in range(2)]
        assert all(r > 0 for r in reads)


class TestCustomExtension:
    def test_custom_kernel_through_full_pipeline(self):
        from repro.kernels.base import Kernel, elements_bytes, new_builder

        class Axpby(Kernel):
            name = "axpby-test"

            def build(self, n, caps, rank=0, nranks=1):
                b = new_builder()
                x = b.buffer("x", elements_bytes(n))
                y = b.buffer("y", elements_bytes(n))
                ca, cb = b.regs(2)
                with b.loop(n // caps.lanes) as i:
                    vx = b.load(x[i * caps.vec_bytes], width=caps.width_bits)
                    vy = b.load(y[i * caps.vec_bytes], width=caps.width_bits)
                    t1 = b.mul(ca, vx, width=caps.width_bits)
                    t2 = b.mul(cb, vy, width=caps.width_bits)
                    out = b.add(t1, t2, width=caps.width_bits)
                    b.store(out, y[i * caps.vec_bytes], width=caps.width_bits)
                return b.build()

            def flops(self, n):
                return 3 * n

            def compulsory_bytes(self, n):
                return 24 * n

            def footprint_bytes(self, n):
                return 16 * n

        machine = tiny_test_machine()
        m = measure_kernel(machine, Axpby(), 4096, protocol="cold", reps=1)
        assert m.true_flops == 3 * 4096
        assert m.traffic_bytes > 0.5 * m.compulsory_bytes
