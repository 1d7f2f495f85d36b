"""Cache backends: occupancy counters, the array state's clear, backend
validation, and the C kernel's ownership of array state.

The ``array`` backend holds the numpy tag/dirty state, each set in
recency order, that the compiled datapath kernel shares; the kernel is
its only writer, so a Python transition on it must raise rather than
run a second copy of the algorithm.  Its equivalence with the dict backend is the
cross-engine gate's (``tests/engine``, ``repro conformance --diff
engine``).
"""

from __future__ import annotations

import pytest

from repro.engine import ckernel
from repro.engine.datapath import BatchDatapath
from repro.errors import ConfigurationError, ExecutionError
from repro.machine.presets import tiny_test_machine
from repro.memory.cache import Cache, CacheConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.replacement import policy_names

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402


def _config(policy: str) -> CacheConfig:
    # 4 sets x 4 ways: small enough that fuzzed streams conflict often
    return CacheConfig("test", 1024, line_bytes=64, assoc=4, policy=policy)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "lookup_w", "fill", "fill_d",
                         "invalidate", "mark_dirty", "contains"]),
        st.integers(min_value=0, max_value=23),
    ),
    max_size=120,
)


def _apply(cache: Cache, op: str, line: int):
    if op == "lookup":
        return cache.lookup_update(line)
    if op == "lookup_w":
        return cache.lookup_update(line, mark_dirty=True)
    if op == "fill":
        return cache.fill(line)
    if op == "fill_d":
        return cache.fill(line, dirty=True)
    if op == "invalidate":
        return cache.invalidate(line)
    if op == "mark_dirty":
        return cache.mark_dirty(line)
    return cache.contains(line)


@pytest.mark.parametrize("policy", policy_names())
@given(ops=_OPS)
@settings(max_examples=60, deadline=None)
def test_occupancy_counter_matches_recount(policy, ops):
    cache = Cache(_config(policy), backend="ways")
    for op, line in ops:
        _apply(cache, op, line)
        assert cache.occupancy() == sum(1 for _ in cache.resident_lines())


@given(ops=_OPS)
@settings(max_examples=60, deadline=None)
def test_dict_backend_occupancy_counter_matches_recount(ops):
    cache = Cache(_config("lru"))  # default: dict fast path
    assert cache._fast
    for op, line in ops:
        _apply(cache, op, line)
        assert cache.occupancy() == sum(1 for _ in cache.resident_lines())


def _array_port():
    """Core 0's port on a tiny hierarchy holding array state."""
    spec = tiny_test_machine().spec
    hier = MemoryHierarchy(spec.hierarchy, spec.topology, array=True)
    return hier.port(0)


@pytest.mark.skipif(not ckernel.available(), reason="needs the C kernel")
@pytest.mark.parametrize("policy", ["lru"])  # the array backend's only one
def test_clear_resets_array_state(policy):
    port = _array_port()
    cache = port.l1
    assert cache.config.policy == policy
    dp = BatchDatapath(port)
    for line in range(12):
        dp.execute_single(line * 7, line % 2 == 0, None)
    assert cache.occupancy() > 0 and list(cache.dirty_lines())
    cache.clear()
    assert cache.occupancy() == 0
    assert list(cache.resident_lines()) == []
    assert list(cache.dirty_lines()) == []
    assert (cache._tags == -1).all() and not cache._adirty.any()
    # and the kernel fills it again (from L2, which kept its copy)
    dp.execute_single(35, False, None)
    assert cache.contains(35)
    assert cache.occupancy() == 1


def test_python_transitions_on_kernel_state_raise():
    port = _array_port()
    for cache in (port.l1, port.l2, port.l3):
        for call in (lambda: cache.lookup_update(3),
                     lambda: cache.fill(3, dirty=True),
                     lambda: cache.invalidate(3),
                     lambda: cache.mark_dirty(3)):
            with pytest.raises(ExecutionError, match="only by the C kernel"):
                call()
        assert cache.occupancy() == 0 and not cache.stats.fills
    trained = [engine for engine in port.hierarchy.prefetchers_of(0)
               if engine.kind != "nextline"]  # next-line is stateless
    assert [engine.kind for engine in trained] == ["stream", "stride"]
    for engine in trained:
        with pytest.raises(ExecutionError, match="only by the C kernel"):
            engine.observe(3, True, 0)
    with pytest.raises(AttributeError):
        port.tlb.translate_page(0)
    with pytest.raises(AttributeError):
        port._prefetched.add(3)
    with pytest.raises(AttributeError):
        port._prefetched.discard(3)
    # so a port call on that state raises too, for every operation
    for call in (lambda: port.access_lines([0, 1], False),
                 lambda: port.access_lines([0], True, nt=True),
                 lambda: port.software_prefetch([0]),
                 lambda: port.flush_lines([0])):
        with pytest.raises((ExecutionError, AttributeError)):
            call()


@pytest.mark.parametrize("policy", [p for p in policy_names() if p != "lru"])
def test_array_backend_requires_lru(policy):
    with pytest.raises(ConfigurationError, match="array backend"):
        Cache(_config(policy), backend="array")


def test_dict_backend_requires_lru():
    with pytest.raises(ConfigurationError):
        Cache(_config("fifo"), backend="dict")


def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError):
        Cache(_config("lru"), backend="hash")
