"""GatherLoad: the indexed-addressing ISA extension."""

import pytest

from repro.errors import AssemblerError, IsaError
from repro.isa import ProgramBuilder, format_program
from repro.isa.instructions import AddrExpr, GatherLoad
from repro.isa.registers import gpr, vec
from repro.machine.presets import tiny_test_machine
from tests.conftest import build_descending_gather


def gather_sum_program(n=256, modulus=64, stride=37):
    b = ProgramBuilder()
    x = b.buffer("x", modulus * 8)
    table = b.index_table(
        "idx", [((i * stride) % modulus) * 8 for i in range(n)]
    )
    acc = b.reg()
    with b.loop(n) as i:
        v = b.gather(x, table[i * 1], width=64)
        acc = b.add(acc, v, width=64, dst=acc)
    return b.build()


class TestConstruction:
    def test_requires_vector_dst(self):
        with pytest.raises(IsaError):
            GatherLoad(gpr(0), "x", AddrExpr("t"))

    def test_rejects_bad_width(self):
        with pytest.raises(IsaError):
            GatherLoad(vec(0), "x", AddrExpr("t"), width_bits=96)

    def test_str(self):
        g = GatherLoad(vec(0), "x", AddrExpr("t", 0, (("i", 1),)))
        assert str(g) == "vgather.64 v0, x[@t[i*1]]"


class TestBuilderAndValidation:
    def test_counts_as_load(self):
        program = gather_sum_program(128)
        counts = program.static_counts()
        assert counts.loads == 128
        assert counts.load_bytes == 128 * 8
        assert counts.flops == 128

    def test_empty_table_rejected(self):
        b = ProgramBuilder()
        with pytest.raises(IsaError):
            b.index_table("t", [])

    def test_negative_offsets_rejected(self):
        b = ProgramBuilder()
        with pytest.raises(IsaError):
            b.index_table("t", [-8])

    def test_duplicate_table_name_rejected(self):
        b = ProgramBuilder()
        b.index_table("t", [0])
        with pytest.raises(IsaError):
            b.index_table("t", [0])

    def test_unknown_table_rejected(self):
        b = ProgramBuilder()
        x = b.buffer("x", 64)
        b._emit(GatherLoad(b.reg(), "x", AddrExpr("ghost")))
        with pytest.raises(IsaError):
            b.build()

    def test_index_out_of_table_rejected(self):
        b = ProgramBuilder()
        x = b.buffer("x", 4096)
        table = b.index_table("t", [0, 8])
        with b.loop(10) as i:
            b.gather(x, table[i * 1], width=64)
        with pytest.raises(IsaError):
            b.build()

    def test_index_below_table_rejected(self):
        with pytest.raises(IsaError, match=r"entries -5\.\.2 but the table "
                                           r"has 16"):
            build_descending_gather()

    def test_table_offset_beyond_buffer_rejected(self):
        b = ProgramBuilder()
        x = b.buffer("x", 64)
        table = b.index_table("t", [128])
        b.gather(x, table[0], width=64)
        with pytest.raises(IsaError):
            b.build()

    def test_not_assemblable(self):
        with pytest.raises(AssemblerError):
            format_program(gather_sum_program(16))


class TestExecution:
    def test_exact_unique_line_traffic(self):
        machine = tiny_test_machine()
        machine.prefetch_control.disable_all()
        program = gather_sum_program(n=256, modulus=1024, stride=37)
        loaded = machine.load(program)
        machine.bust_caches()
        run = machine.run(loaded, core_id=0)
        unique = len({((i * 37) % 1024) * 8 // 64 for i in range(256)})
        assert machine.hierarchy.dram[0].counters.cas_reads == unique
        assert run.result.batch.accesses == 256

    def test_repeated_gather_hits_cache(self):
        machine = tiny_test_machine()
        machine.prefetch_control.disable_all()
        # two lines revisited in alternation: after the two compulsory
        # misses, every (non-coalesced) touch is an L1 hit
        program = gather_sum_program(n=64, modulus=16, stride=5)
        loaded = machine.load(program)
        machine.bust_caches()
        run = machine.run(loaded, core_id=0)
        batch = run.result.batch
        assert batch.dram_reads == 2
        assert batch.l1_hits == batch.accesses - 2
        assert batch.accesses > 10  # alternation survives coalescing

    def test_gather_in_nested_loop(self):
        machine = tiny_test_machine()
        b = ProgramBuilder()
        x = b.buffer("x", 4096)
        table = b.index_table("t", [(i * 17 % 512) * 8 for i in range(64)])
        with b.loop(8, "r") as r:
            with b.loop(8, "j") as j:
                b.gather(x, table[r * 8 + j * 1], width=64)
        loaded = machine.load(b.build())
        run = machine.run(loaded, core_id=0)
        assert run.result.batch.accesses == 64

    def test_gather_fp_dependence_counts_in_overcount(self):
        """Gathered values feeding FP ops participate in the reissue
        artifact like normal loads."""
        machine = tiny_test_machine()
        machine.prefetch_control.disable_all()
        program = gather_sum_program(n=2048, modulus=4096, stride=61)
        loaded = machine.load(program)
        machine.bust_caches()
        before = machine.core_pmu(0).read("fp_scalar_f64")
        machine.run(loaded, core_id=0)
        delta = machine.core_pmu(0).read("fp_scalar_f64") - before
        assert delta > 2048  # true adds plus replays
