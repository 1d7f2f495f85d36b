"""Layout drift guard between ``_ckernel.c`` and ``engine/ckernel.py``.

The C kernel and its ctypes loader share several int64 array layouts
by position: the counter block (``O_*``), the packed-plan run metadata
(``RM_*``) and the nest descriptor (``NH_*`` / ``NN_*`` / ``NK_*`` /
``NS_*`` / ``NST_*``).  The loader's struct-size handshake only guards
the ``Ctx`` struct, so these tests parse the enums out of the C source
and compare them, name by name and position by position, with the
Python tuples.  They need no compiler.
"""

from __future__ import annotations

import re

import pytest

from repro.engine import ckernel

SOURCE = ckernel._SRC.read_text()

#: trailing enum members that count the fields instead of naming one
SENTINELS = {"COUNT", "FIELDS", "IVS"}


def _enum(prefix: str):
    """Member suffixes of the C enum whose members start ``prefix``."""
    for body in re.findall(r"enum\s*\{([^}]*)\}", SOURCE):
        body = re.sub(r"/\*.*?\*/", "", body, flags=re.S)
        names = [name.strip() for name in body.split(",") if name.strip()]
        if names and all(name.startswith(prefix) for name in names):
            return [name[len(prefix):] for name in names]
    raise AssertionError(f"no enum with prefix {prefix!r} in _ckernel.c")


def _fields(prefix: str):
    """(field names in order, sentinel or None) of one C enum."""
    members = _enum(prefix)
    if members[-1] in SENTINELS:
        return [m.lower() for m in members[:-1]], members[-1]
    return [m.lower() for m in members], None


@pytest.mark.parametrize("prefix,names", [
    ("O_", ckernel.OUT_FIELDS),
    ("RM_", ckernel.RM_FIELD_NAMES),
    ("NH_", ckernel.NEST_HEADER),
    ("NN_", ckernel.NEST_NODE),
    ("NK_", ckernel.NEST_KINDS),
    ("NS_", ckernel.NEST_SITE),
    ("NST_", ckernel.NEST_STATE),
])
def test_enum_matches_python_layout(prefix, names):
    fields, _sentinel = _fields(prefix)
    assert fields == list(names)


def test_python_index_tables_follow_the_tuples():
    assert ckernel.OUT_COUNT == len(ckernel.OUT_FIELDS)
    assert ckernel.RM_FIELDS == len(ckernel.RM_FIELD_NAMES)
    assert (ckernel.RM_OP, ckernel.RM_HOME, ckernel.RM_REMOTE,
            ckernel.RM_OFF, ckernel.RM_N, ckernel.RM_SID) == tuple(range(6))
    for table, names in ((ckernel.OUT, ckernel.OUT_FIELDS),
                         (ckernel.NH, ckernel.NEST_HEADER),
                         (ckernel.NN, ckernel.NEST_NODE),
                         (ckernel.NK, ckernel.NEST_KINDS),
                         (ckernel.NS, ckernel.NEST_SITE),
                         (ckernel.NST, ckernel.NEST_STATE)):
        assert table == {name: i for i, name in enumerate(names)}


def test_sentinels_close_every_counted_layout():
    # the count members the C side sizes rows with
    assert _fields("O_")[1] == "COUNT"
    assert _fields("RM_")[1] == "FIELDS"
    assert _fields("NH_")[1] == "FIELDS"
    assert _fields("NN_")[1] == "FIELDS"
    # site rows continue with one stride per iv slot; the state words
    # continue with the iv slots and the flat-loop scratch
    assert _fields("NS_")[1] == "IVS"
    assert _fields("NST_")[1] == "IVS"
    assert _fields("NK_")[1] is None


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
