"""Protocol/machine lifecycle edge cases."""

import gc

import pytest

from repro.kernels import Daxpy
from repro.machine.presets import make_machine, tiny_test_machine
from repro.measure import ColdCache, measure_kernel
from tests.conftest import build_read_sweep


class TestBusterReuse:
    def test_buster_loaded_once_per_machine(self, tiny):
        protocol = ColdCache(method="sweep")
        before = tiny.allocator.bytes_allocated
        protocol.prepare(tiny, lambda: None)
        after_first = tiny.allocator.bytes_allocated
        protocol.prepare(tiny, lambda: None)
        assert tiny.allocator.bytes_allocated == after_first
        assert after_first > before

    def test_buster_per_machine_isolation(self):
        protocol = ColdCache(method="sweep")
        a = tiny_test_machine()
        b = tiny_test_machine()
        protocol.prepare(a, lambda: None)
        protocol.prepare(b, lambda: None)
        assert len(protocol._busters) == 2

    def test_collected_machine_leaves_no_buster(self):
        # keyed by id(), the entry outlived its machine, and a new
        # machine reusing the id inherited a buster sized for other
        # caches
        protocol = ColdCache(method="sweep")
        machine = tiny_test_machine()
        protocol.prepare(machine, lambda: None)
        assert len(protocol._busters) == 1
        del machine
        gc.collect()
        assert len(protocol._busters) == 0

    def test_each_buster_is_sized_from_its_own_machine(self):
        protocol = ColdCache(method="sweep")
        machines = [tiny_test_machine(), make_machine("snb", scale=1 / 64)]
        for machine in machines:
            protocol.prepare(machine, lambda: None)
        for machine in machines:
            loaded = protocol._buster_for(machine)
            assert loaded.buffer_map["buster"].size == (
                2 * machine.spec.total_cache_bytes())

    def test_buster_resets_prefetcher_training(self, tiny):
        # a 32-line read sweep, on whichever datapath the machine has
        tiny.run(tiny.load(build_read_sweep(32 * 64)))
        assert any(engine.stats.issued
                   for engine in tiny.hierarchy.prefetchers_of(0))
        ColdCache(method="sweep").prepare(tiny, lambda: None)
        for engine in tiny.hierarchy.prefetchers_of(0):
            assert engine.stats.issued == 0


class TestRepeatedMeasurements:
    def test_many_measurements_on_one_machine_are_stable(self, tiny):
        values = [
            measure_kernel(tiny, Daxpy(), 4096, protocol="cold",
                           reps=1).performance
            for _ in range(3)
        ]
        spread = (max(values) - min(values)) / values[0]
        assert spread < 0.05

    def test_cold_and_warm_interleave_cleanly(self, tiny):
        cold1 = measure_kernel(tiny, Daxpy(), 4096, protocol="cold", reps=1)
        warm = measure_kernel(tiny, Daxpy(), 64, protocol="warm", reps=1)
        cold2 = measure_kernel(tiny, Daxpy(), 4096, protocol="cold", reps=1)
        assert cold2.performance == pytest.approx(cold1.performance,
                                                  rel=0.05)
        assert warm.work_overcount == pytest.approx(1.0, abs=0.05)

    def test_parallel_traffic_counts_both_cores(self, tiny):
        m = measure_kernel(tiny, Daxpy(), 16384, protocol="cold",
                           cores=(0, 1), reps=1)
        # both ranks' compulsory traffic is present
        assert m.traffic_bytes > 0.7 * m.compulsory_bytes
        assert m.work_flops > m.true_flops  # cold overcount on both
