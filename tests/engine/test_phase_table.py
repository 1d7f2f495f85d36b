"""The phase table: an execution's phase costs as float64 columns.

On the compiled datapath each C-kernel call's phases are costed in one
array pass and stored as one block of seven columns; no ``PhaseCost``
is built unless a reader indexes or iterates the table.  These tests
pin that (by counting ``PhaseCost.__init__`` calls), pin the table to
the reference engine's column for column and ``repr`` for ``repr``,
and check that merging results concatenates their tables.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cpu.core import ExecutionResult
from repro.cpu.timing import PHASE_COLUMNS, PhaseCost, PhaseTable
from repro.kernels import CodegenCaps, make_kernel
from repro.machine.presets import tiny_test_machine
from repro.measure import measure_kernel
from tests.conftest import needs_ckernel


def _cost(seed: float) -> PhaseCost:
    return PhaseCost(seed, seed + 0.5, 2.0, seed * 3.0, 0.25, seed / 7.0,
                     seed + 1.125)


def _run(program, engine: str):
    machine = tiny_test_machine(engine=engine)
    return machine, machine.run(machine.load(program)).result


def _dgemm_tiled(n: int = 32):
    caps = CodegenCaps.from_machine(tiny_test_machine())
    return make_kernel("dgemm-tiled").build(n, caps)


@pytest.fixture
def phase_cost_inits(monkeypatch):
    """A list that grows by one for every ``PhaseCost`` constructed."""
    calls = []
    init = PhaseCost.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PhaseCost, "__init__", counted)
    return calls


def test_rows_and_blocks_keep_program_order():
    costs = [_cost(float(i)) for i in range(6)]
    table = PhaseTable()
    table.append(costs[0])
    table.add_block(np.array([list(c.as_dict().values())
                              for c in costs[1:4]]).T)
    table.append(costs[4])
    table.append(costs[5])
    assert len(table) == 6
    assert list(table) == costs
    assert table.columns.shape == (len(PHASE_COLUMNS), 6)
    assert table.column("exposed_latency").tolist() == \
        [c.exposed_latency for c in costs]
    assert [repr(t) for t in table.total.tolist()] == \
        [repr(c.total) for c in costs]


def test_indexing_builds_a_phase_cost_of_python_floats():
    table = PhaseTable()
    table.add_block(np.arange(14, dtype=np.float64).reshape(7, 2))
    first, last = table[0], table[-1]
    assert isinstance(first, PhaseCost)
    assert all(type(v) is float for v in first.as_dict().values())
    assert first == PhaseCost(0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
    assert last == table[1] == list(table)[1]
    with pytest.raises(IndexError):
        table[2]


def test_equality_is_exact():
    a, b = PhaseTable(), PhaseTable()
    for table in (a, b):
        table.append(_cost(1.0))
    assert a == b
    b.append(_cost(2.0))
    assert a != b
    c = PhaseTable()
    c.append(_cost(1.0 + 2 ** -40))
    assert a != c
    assert PhaseTable() == PhaseTable()
    assert len(PhaseTable().total) == 0


def test_merge_concatenates_tables():
    first, second = ExecutionResult(), ExecutionResult()
    first.phases.append(_cost(1.0))
    first.phases.add_block(np.full((7, 2), 3.0))
    second.phases.append(_cost(4.0))
    expected = np.concatenate(
        (first.phases.columns, second.phases.columns), axis=1)
    first.merge(second)
    assert len(first.phases) == 4
    assert np.array_equal(first.phases.columns, expected)
    assert list(first.phases)[-1] == _cost(4.0)


def test_merged_walk_results_equal_the_concatenation():
    program = _dgemm_tiled(16)
    _, a = _run(program, "reference")
    _, b = _run(program, "reference")
    expected = np.concatenate((a.phases.columns, b.phases.columns), axis=1)
    merged = ExecutionResult()
    merged.merge(a)
    merged.merge(b)
    assert len(merged.phases) == len(a.phases) + len(b.phases)
    assert np.array_equal(merged.phases.columns, expected)


@needs_ckernel
def test_c_path_table_equals_the_reference_table():
    program = _dgemm_tiled(32)
    fast_m, fast = _run(program, "fast")
    _, ref = _run(program, "reference")
    assert fast_m.core(0).plan_stats.nest_runs > 0
    assert len(fast.phases) == len(ref.phases) > 0
    assert [repr(t) for t in fast.phases.total.tolist()] == \
        [repr(t) for t in ref.phases.total.tolist()]
    assert [repr(t) for t in fast.phases.total.tolist()] == \
        [repr(cost.total) for cost in ref.phases]
    for name in PHASE_COLUMNS:
        assert np.array_equal(fast.phases.column(name),
                              ref.phases.column(name)), name
    assert fast.phases == ref.phases


@needs_ckernel
def test_c_path_merge_equals_the_concatenation():
    program = _dgemm_tiled(32)
    machine = tiny_test_machine()
    a = machine.run(machine.load(program)).result
    b = machine.run(machine.load(program)).result
    expected = np.concatenate((a.phases.columns, b.phases.columns), axis=1)
    a.merge(b)
    assert np.array_equal(a.phases.columns, expected)


@needs_ckernel
def test_measure_kernel_builds_no_phase_cost(phase_cost_inits):
    machine = tiny_test_machine()
    m = measure_kernel(machine, make_kernel("dgemm-tiled"), 32, reps=2)
    assert m.true_flops > 0
    assert machine.core(0).plan_stats.nest_runs > 0
    assert phase_cost_inits == []
    # the walk still builds one per phase: the counter counts
    _run(_dgemm_tiled(16), "reference")
    assert phase_cost_inits
