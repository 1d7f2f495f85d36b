"""SpMV kernel: pattern determinism, ground truth, locality behaviour."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kernels import CodegenCaps, Spmv
from repro.kernels.spmv import _lcg_columns, _lcg_columns_rect
from repro.machine.presets import tiny_test_machine
from repro.measure import measure_kernel

CAPS = CodegenCaps(width_bits=256, has_fma=False)


def scalar_columns(n, ncols, row_nnz, bandwidth, seed):
    """The column generator one draw at a time: the oracle for the
    vectorised jump-ahead."""
    state = seed & 0x7FFFFFFF
    columns = []
    band, rows = max(bandwidth, 1), max(n, 1)
    for row in range(n):
        low = (row * ncols) // rows - bandwidth // 2
        for _ in range(row_nnz):
            state = (1103515245 * state + 12345) & 0x7FFFFFFF
            columns.append((low + state % band) % ncols)
    return columns


class TestPattern:
    def test_deterministic(self):
        a = _lcg_columns(64, 4, 32, seed=7)
        b = _lcg_columns(64, 4, 32, seed=7)
        assert np.array_equal(a, b)

    def test_columns_in_range(self):
        columns = _lcg_columns(128, 8, 64, seed=3)
        assert len(columns) == 128 * 8
        assert all(0 <= c < 128 for c in columns)

    def test_band_is_respected(self):
        n, band = 1000, 10
        columns = _lcg_columns(n, 4, band, seed=1)
        for row in range(10, 100):
            for j in range(4):
                col = columns[row * 4 + j]
                assert abs(col - row) <= band

    def test_seed_changes_pattern(self):
        assert not np.array_equal(_lcg_columns(64, 4, 32, 1),
                                  _lcg_columns(64, 4, 32, 2))

    @pytest.mark.parametrize("n, ncols, row_nnz, bandwidth, seed", [
        (1, 1, 1, 1, 0),
        (3, 3, 5, 2, 1),
        (64, 64, 4, 32, 7),
        (100, 700, 3, 700, 0xC0FFEE),
        (257, 257, 8, 512, 0x7FFFFFFF),
        (1000, 1000, 4, 10, 2**40 + 5),
        (2048, 4096, 8, 1 << 20, 12345),
    ])
    def test_jump_ahead_matches_the_scalar_loop(self, n, ncols, row_nnz,
                                                bandwidth, seed):
        columns = _lcg_columns_rect(n, ncols, row_nnz, bandwidth, seed)
        assert columns.dtype == np.int64
        assert columns.tolist() == scalar_columns(n, ncols, row_nnz,
                                                  bandwidth, seed)

    def test_kernel_table_is_the_scaled_columns(self):
        kernel = Spmv(row_nnz=4, bandwidth=64, seed=9, cols=300)
        table = kernel.build(128, CAPS).tables["cols"]
        assert table.tolist() == [
            8 * c for c in scalar_columns(128, 300, 4, 64, 9)]


class TestGroundTruth:
    def test_flops_formula(self):
        kernel = Spmv(row_nnz=8)
        assert kernel.flops(100) == 2 * 100 * 8 + 100

    def test_generated_flops_exact(self):
        kernel = Spmv(row_nnz=4, bandwidth=64)
        program = kernel.build(128, CAPS)
        assert program.static_counts().flops == kernel.flops(128)

    def test_loads_include_gathers(self):
        kernel = Spmv(row_nnz=4)
        counts = kernel.build(64, CAPS).static_counts()
        # per nnz: val + colidx + gather; per row: y load
        assert counts.loads == 64 * 4 * 3 + 64
        assert counts.stores == 64

    def test_partitioning(self):
        kernel = Spmv(row_nnz=4)
        total = sum(
            kernel.build(128, CAPS, rank=r, nranks=2).static_counts().flops
            for r in range(2)
        )
        assert total == kernel.flops(128)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Spmv(row_nnz=0)
        with pytest.raises(ConfigurationError):
            Spmv().validate_n(100, CAPS, nranks=3)


class TestLocality:
    def test_narrow_band_beats_wide_band(self):
        machine = tiny_test_machine()
        n = 2048  # x = 16 KiB, exactly the L3
        narrow = measure_kernel(machine, Spmv(row_nnz=4, bandwidth=64), n,
                                protocol="cold", reps=1)
        wide = measure_kernel(machine, Spmv(row_nnz=4, bandwidth=1 << 20), n,
                              protocol="cold", reps=1)
        assert narrow.performance > 1.1 * wide.performance

    def test_intensity_near_analytic(self):
        machine = tiny_test_machine()
        kernel = Spmv(row_nnz=4, bandwidth=64)
        m = measure_kernel(machine, kernel, 4096, protocol="cold", reps=1)
        analytic = kernel.operational_intensity(4096)
        assert m.intensity == pytest.approx(analytic, rel=0.3)
