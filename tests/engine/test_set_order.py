"""The C kernel's in-array layout: every set and TLB level in recency order.

The kernel keeps each array-backed cache set most recent line first,
with the valid ways as a prefix, and each TLB level as a valid prefix in
:class:`~repro.memory.tlb.Tlb`'s dict order reversed.  Lookups and
victim choice rely on that order alone, so these tests compare the raw
arrays of a fast-engine machine, after every program of a random
sequence, with the dict state of a reference-engine twin: the same
lines, in the same recency order, with the same dirty bits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.datapath import BatchDatapath
from repro.machine.presets import make_machine, tiny_test_machine
from repro.memory.hierarchy import MemoryHierarchy
from repro.oracle import random_program
from tests.conftest import needs_ckernel

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from tests.engine.test_engine_equivalence import HypoRng  # noqa: E402

pytestmark = needs_ckernel

_MACHINES = {
    "tiny": tiny_test_machine,
    "snb": lambda: make_machine("snb", scale=0.125),
}


def _expected_sets(cache):
    """(tags, dirty) arrays a dict-backed cache's sets map to: each set
    most recent first (its dict order reversed), -1 padding the rest."""
    shape = (cache.config.nsets, cache.config.assoc)
    tags = np.full(shape, -1, dtype=np.int64)
    dirty = np.zeros(shape, dtype=bool)
    for idx, lines in enumerate(cache._sets):
        items = list(lines.items())[::-1]
        if items:
            tags[idx, :len(items)] = [line for line, _ in items]
            dirty[idx, :len(items)] = [flag for _, flag in items]
    return tags, dirty


def _check_cache(array, ref) -> None:
    name = array.config.name
    tags = array._tags
    valid = tags != -1
    # the valid ways are a prefix of every set
    assert (valid[:, 1:] <= valid[:, :-1]).all(), f"{name}: hole in a set"
    for idx in np.flatnonzero(valid.sum(axis=1) > 1):
        row = tags[idx][valid[idx]]
        assert len(set(row.tolist())) == len(row), f"{name}: repeated tag"
    want_tags, want_dirty = _expected_sets(ref)
    assert np.array_equal(tags, want_tags), f"{name}: set order differs"
    assert np.array_equal(array._adirty, want_dirty), (
        f"{name}: dirty bits differ")


def _check_tlb(array, ref) -> None:
    for pages, count, level in ((array.l1_pages, array.regs[0], ref._l1),
                                (array.l2_pages, array.regs[1], ref._l2)):
        assert count == len(level)
        assert pages[:count].tolist() == list(level)[::-1]
        assert (pages[count:] == -1).all()


@pytest.mark.parametrize("preset", sorted(_MACHINES))
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_array_layout_mirrors_reference_recency(preset, data):
    rng = HypoRng(data)
    fast, ref = _MACHINES[preset](), _MACHINES[preset]()
    fast.engine, ref.engine = "fast", "reference"
    mask = rng.randint(0, 15)
    for _ in range(rng.randint(1, 3)):
        program = random_program(rng)
        for machine in (fast, ref):
            machine.prefetch_control.write_msr(mask)
            machine.run(machine.load(program), core_id=0)
        fhier, rhier = fast.hierarchy, ref.hierarchy
        assert fhier.array_mode and not rhier.array_mode
        for array, dict_cache in zip(fhier.l1 + fhier.l2 + fhier.l3,
                                     rhier.l1 + rhier.l2 + rhier.l3):
            _check_cache(array, dict_cache)
        _check_tlb(fhier.port(0).tlb, rhier.port(0).tlb)


def test_store_hit_below_way_zero_stays_dirty_and_writes_back():
    spec = tiny_test_machine().spec
    hier = MemoryHierarchy(spec.hierarchy, spec.topology)
    assert hier.adopt_array_backend()
    hier.prefetch_control.write_msr(0xF)  # no prefetch fills
    port = hier.port(0)
    l1, l2 = port.l1, port.l2
    nsets, assoc = l1.config.nsets, l1.config.assoc
    assert assoc >= 2
    dp = BatchDatapath(port)
    a, b = 0, nsets  # two lines of set 0
    dp.execute_single(a, False, None)
    dp.execute_single(b, False, None)
    assert l1._tags[0, :2].tolist() == [b, a]
    dp.execute_single(a, True, None)  # store hit at way 1
    assert l1._tags[0, :2].tolist() == [a, b]
    assert list(l1.dirty_lines()) == [a]
    # push a out of L1 with `assoc` newer lines of its set
    for k in range(2, assoc + 2):
        dp.execute_single(k * nsets, False, None)
    assert not l1.contains(a)
    assert l1.stats.dirty_evictions == 1
    assert a in set(l2.dirty_lines()) and b not in set(l2.dirty_lines())
