"""Bench S1: substrate performance (simulator throughput).

Not a paper figure — this measures the *simulator itself* so regressions
in the cache/interpreter hot paths are visible: simulated line-accesses
per second through the full hierarchy, and interpreter throughput on a
streaming kernel.
"""

from repro.kernels import CodegenCaps, Daxpy
from repro.machine.presets import tiny_test_machine


def test_hierarchy_access_throughput(benchmark):
    # the port's per-line Python path runs on the reference engine's
    # dict state; a fast machine's array state is the C kernel's alone
    machine = tiny_test_machine(engine="reference")
    machine.prefetch_control.disable_all()
    port = machine.hierarchy.port(0)
    lines = list(range(20_000))

    def sweep():
        return port.access_lines(lines, is_write=False)

    stats = benchmark(sweep)
    assert stats.accesses == 20_000


def test_interpreter_daxpy_throughput(benchmark):
    machine = tiny_test_machine()
    caps = CodegenCaps.from_machine(machine)
    loaded = machine.load(Daxpy().build(65536, caps))

    def run():
        return machine.run(loaded, core_id=0)

    result = benchmark(run)
    assert result.result.true_flops == 2 * 65536


def test_prefetcher_overhead(benchmark):
    """Same sweep with engines active: quantifies prefetch-path cost."""
    machine = tiny_test_machine(engine="reference")
    port = machine.hierarchy.port(0)
    lines = list(range(20_000))

    def sweep():
        return port.access_lines(lines, is_write=False)

    stats = benchmark(sweep)
    assert stats.accesses == 20_000
