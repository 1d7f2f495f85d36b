"""The paper's headline qualitative results, asserted directly.

Each test is one claim of Ofenbeck et al. reproduced mechanically on a
small-scale machine (absolute numbers differ; shapes must hold).
"""

import pytest

from repro.bench import measure_bandwidth, measure_peak_flops
from repro.kernels import Daxpy, Dgemm, StreamTriad
from repro.machine.presets import make_machine
from repro.measure import measure_kernel
from repro.roofline import build_roofline


@pytest.fixture()
def snb():
    return make_machine("snb-ep", scale=0.03125)


def dram_n(machine, bytes_per_elem, factor=4, granule=32):
    n = factor * machine.spec.hierarchy.l3.size_bytes // bytes_per_elem
    return n - n % granule


class TestClaimWarmWorkExactColdInflated:
    """Claim: FP counters are exact warm, overcount cold (reissue)."""

    def test_shape(self, snb):
        warm_n = snb.spec.hierarchy.l1.size_bytes // 32
        warm_n -= warm_n % 32
        warm = measure_kernel(snb, Daxpy(), warm_n, protocol="warm", reps=1)
        cold = measure_kernel(snb, Daxpy(), dram_n(snb, 16), protocol="cold",
                              reps=1)
        assert warm.work_overcount == pytest.approx(1.0, abs=0.05)
        assert cold.work_overcount > 1.5


class TestClaimImcBeatsCacheEvents:
    """Claim: LLC-miss-event traffic undercounts behind prefetchers;
    IMC CAS counting stays accurate."""

    def test_shape(self, snb):
        n = dram_n(snb, 24)
        kernel = StreamTriad()
        on = measure_kernel(snb, kernel, n, protocol="cold", reps=1)
        expected_reads = 24 * n
        assert on.llc_bytes < 0.5 * expected_reads        # events lie
        assert on.traffic_bytes > 0.8 * kernel.compulsory_bytes(n)  # IMC ok


class TestClaimMemoryBoundRidesTheRoof:
    """Claim: DRAM-resident daxpy lands on the bandwidth roof."""

    def test_shape(self, snb):
        model = build_roofline(snb, cores=(0,), trips=2048,
                               stream_elements=65536,
                               bandwidth_methods=("memset-nt", "read"))
        m = measure_kernel(snb, Daxpy(), dram_n(snb, 16), protocol="cold",
                           reps=1)
        roof = model.attainable(m.intensity)
        assert 0.6 <= m.performance / roof <= 1.35
        assert m.intensity < model.ridge_intensity


class TestClaimOptimizedGemmNearsPeak:
    """Claim: a well-blocked dgemm approaches the compute ceiling and is
    compute-bound; naive code is far below."""

    def test_shape(self, snb):
        peak = snb.spec.theoretical_peak_flops()
        tiled = measure_kernel(snb, Dgemm(variant="tiled"), 96,
                               protocol="warm", reps=1)
        naive = measure_kernel(snb, Dgemm(variant="naive"), 96,
                               protocol="warm", reps=1)
        assert tiled.performance > 0.6 * peak
        assert tiled.performance > 1.5 * naive.performance


class TestClaimNtStoresWinBandwidth:
    """Claim: non-temporal stores give the highest measured bandwidth
    (no read-for-ownership)."""

    def test_shape(self, snb):
        cores = tuple(range(8))
        nt = measure_bandwidth(snb, "memset-nt", cores, n=131072, reps=1)
        wa = measure_bandwidth(snb, "memset", cores, n=131072, reps=1)
        rd = measure_bandwidth(snb, "read", cores, n=131072, reps=1)
        assert nt.bytes_per_second > wa.bytes_per_second
        assert nt.bytes_per_second >= 0.9 * rd.bytes_per_second


class TestClaimTurboDestabilisesRoofs:
    """Claim: Turbo Boost must be disabled or the compute roof depends
    on active-core count."""

    def test_shape(self, snb):
        snb.governor.enable_turbo()
        one = measure_peak_flops(snb, None, (0,), trips=1024)
        all_cores = measure_peak_flops(snb, None, tuple(range(8)),
                                       trips=1024)
        snb.governor.disable_turbo()
        per_core_one = one.flops_per_second
        per_core_all = all_cores.flops_per_second / 8
        assert per_core_one > 1.05 * per_core_all


class TestClaimParallelShiftsRidgeRight:
    """Claim: with all cores, per-thread bandwidth shrinks, so kernels
    that were compute-bound sequentially can become memory-bound — the
    ridge moves right."""

    def test_shape(self, snb):
        seq = build_roofline(snb, cores=(0,), trips=1024,
                             stream_elements=65536,
                             bandwidth_methods=("memset-nt",))
        par = build_roofline(snb, cores=tuple(range(8)), trips=1024,
                             widths=[256],
                             stream_elements=8 * 65536,
                             bandwidth_methods=("memset-nt",))
        assert par.ridge_intensity > 1.5 * seq.ridge_intensity
