"""The C kernel's interface is the table in ``engine/ckernel.py``: the
committed C block is generated from it, the loader refuses a kernel laid
out otherwise, and the Python readers of the counter block follow it."""

from __future__ import annotations

import os
import shutil
import warnings

import pytest

from repro.engine import ckernel

SOURCE = ckernel._SRC.read_text()
WORDS = ckernel._expected()


def test_generated_block_matches_the_tables():
    # after a table edit, `python -m repro.engine` rewrites it
    assert ckernel._split(SOURCE)[1] == ckernel.c_block()


def test_regenerate_rewrites_a_stale_block(tmp_path):
    stale = tmp_path / "_ckernel.c"
    stale.write_text(SOURCE.replace("RM_SID, RM_FIELDS", "RM_FIELDS"))
    assert ckernel.regenerate(stale)
    assert stale.read_text() == SOURCE
    assert not ckernel.regenerate(stale)


@pytest.mark.parametrize("prefix,names", [
    ("O_", ckernel.OUT_FIELDS),
    ("RM_", tuple(ckernel.RM)),
    ("NH_", tuple(ckernel.NH)),
    ("NN_", tuple(ckernel.NN)),
    ("NK_", tuple(ckernel.NK)),
    ("NS_", tuple(ckernel.NS)),
    ("NST_", tuple(ckernel.NST)),
])
def test_enum_matches_python_layout(prefix, names):
    # the compiled kernel numbers every member as the Python side does
    if ckernel.lib() is None:
        pytest.skip("the C kernel is unavailable")
    words = dict(zip((expr for expr, _value in WORDS),
                     ckernel.layout_words(ckernel.lib())))
    assert [words[prefix + name.upper()] for name in names] \
        == list(range(len(names)))


@pytest.mark.parametrize("expr", ["sizeof(Ctx)", "offsetof(Ctx, st_thr)",
                                  "O_USEFUL", "OP_FLUSH", "HM_WRITES",
                                  "NST_IVS", "PF_BLOCK_SHIFT"])
def test_a_differing_word_is_named(expr):
    words = [value for _expr, value in WORDS]
    assert ckernel.layout_mismatch(words) is None
    assert "words" in ckernel.layout_mismatch(words[:-1])
    words[[e for e, _v in WORDS].index(expr)] += 1
    assert f" at {expr}:" in ckernel.layout_mismatch(words)


@pytest.mark.skipif(shutil.which(os.environ.get("CC", "gcc")) is None,
                    reason="no C compiler to build a kernel with")
def test_a_kernel_with_two_ctx_fields_swapped_does_not_load(
        tmp_path, monkeypatch):
    from repro.machine.presets import tiny_test_machine

    mutant = tmp_path / "_ckernel.c"
    mutant.write_text(SOURCE.replace("st_deg, st_thr", "st_thr, st_deg"))
    monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_CKERNEL", "1")
    monkeypatch.setattr(ckernel, "_SRC", mutant)
    monkeypatch.setattr(ckernel, "_lib", None)
    monkeypatch.setattr(ckernel, "_status", None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        machine = tiny_test_machine()
        assert ckernel.lib() is None
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "at offsetof(Ctx, st_deg):" in str(caught[0].message)
    state, reason = ckernel.status()
    assert state == ckernel.FAILED and reason in str(caught[0].message)
    assert machine.walk_reason == "no_ckernel"


def test_packed_plan_meta_width_matches_rm_fields():
    from repro.engine.plan import AccessPlan

    assert AccessPlan.one_run("load", [1, 2], 0, 0).meta.shape[1] \
        == ckernel.RM_FIELDS
    assert AccessPlan.from_emissions([], 0).meta.shape[1] \
        == ckernel.RM_FIELDS


def test_counter_block_leads_with_the_batch_stats_fields():
    # the nest executor reads per-phase BatchStats straight off the
    # leading counter-block columns of its rows
    from repro.cpu.core import BATCH_FIELDS

    columns = {
        "accesses": "acc", "l1_hits": "l1h", "l2_hits": "l2h",
        "l3_hits": "l3h", "dram_reads": "drd", "writebacks": "wbk",
        "nt_lines": "ntl", "l1_evictions": "e1", "l2_evictions": "e2",
        "l3_evictions": "e3", "sw_prefetches": "swp",
        "hw_prefetch_issued": "hwi", "hw_prefetch_dram_reads": "pfr",
        "prefetch_useful": "pfu", "remote_dram_lines": "rem",
        "flushes": "fls", "tlb_misses": "tlbm", "tlb_walk_cycles": "tlbw",
    }
    assert BATCH_FIELDS == tuple(columns)
    assert ckernel.OUT_FIELDS[:len(columns)] == tuple(columns.values())


@pytest.mark.skipif(not ckernel.available(),
                    reason="the C kernel is unavailable")
def test_apply_out_reads_every_counter_by_name():
    # _apply_out reads the block by its OUT names, every one of them
    from repro.machine.presets import tiny_test_machine

    class Recording(dict):
        def __init__(self):
            super().__init__(dict.fromkeys(ckernel.OUT_FIELDS, 0))
            self.read = set()

        def __getitem__(self, name):
            self.read.add(name)
            return super().__getitem__(name)

    core = tiny_test_machine().core(0)
    datapath = core._datapath
    datapath.execute_single(0, False, None)  # builds the context
    block = Recording()
    datapath._apply_out(block)
    assert block.read == set(ckernel.OUT_FIELDS)
