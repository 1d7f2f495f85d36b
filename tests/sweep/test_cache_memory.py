"""The sweep cache's in-memory table of verified payloads.

A :class:`SweepCache` reads and verifies an entry file once; later
lookups of that key answer from memory.  Damaged entries never enter
the table, the table is bounded, ``store`` and ``gc`` forget what they
replace or remove, and threads sharing one cache see one payload.
"""

import builtins
import json
import sys
import threading
import time

import pytest

from repro.machine.ref import MachineRef
from repro.sweep import (
    SweepCache,
    SweepPlan,
    payload_to_measurement,
    run_plan,
)
from repro.sweep import cache as cache_module
from repro.sweep.cache import CORRUPT, HIT, MISS

pytestmark = pytest.mark.sweep


def key(i: int) -> str:
    return f"{i:02x}" * 32


def payload(i: int) -> dict:
    return {"schema": 2, "work_flops": float(i), "traffic_bytes": [64, i]}


@pytest.fixture()
def cache(tmp_path):
    return SweepCache(str(tmp_path / "sweepcache"))


@pytest.fixture()
def opened(monkeypatch):
    """Paths passed to ``open`` while the test runs."""
    paths = []
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        paths.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    return paths


def damage(path: str) -> None:
    with open(path, "r+b") as handle:
        handle.truncate(10)


class TestRemembered:
    def test_a_remembered_key_hits_without_opening_its_file(
            self, cache, opened):
        cache.store(key(1), payload(1))
        assert cache.lookup(key(1)) == (payload(1), HIT)
        assert cache.path(key(1)) in opened
        opened.clear()
        assert cache.lookup(key(1)) == (payload(1), HIT)
        assert opened == []

    def test_a_damaged_file_never_enters_memory(self, cache):
        path = cache.path(key(1))
        cache.store(key(1), payload(1))
        damage(path)
        assert cache.lookup(key(1)) == (None, CORRUPT)
        assert cache.lookup(key(1)) == (None, CORRUPT)
        # repaired behind the cache's back: the next read verifies it
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"key": key(1), "payload": payload(1),
                       "checksum": cache_module._checksum(payload(1))},
                      handle)
        assert cache.lookup(key(1)) == (payload(1), HIT)

    def test_damage_after_a_verified_read_shows_to_a_new_cache(self, cache):
        cache.store(key(1), payload(1))
        assert cache.lookup(key(1))[1] == HIT
        damage(cache.path(key(1)))
        assert cache.lookup(key(1)) == (payload(1), HIT)
        assert SweepCache(cache.root).lookup(key(1)) == (None, CORRUPT)

    def test_misses_are_not_remembered(self, cache):
        assert cache.lookup(key(1)) == (None, MISS)
        cache.store(key(1), payload(1))
        assert cache.lookup(key(1)) == (payload(1), HIT)


class TestBoundAndInvalidation:
    def test_the_table_is_bounded_least_recently_used_first(
            self, cache, opened, monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_ENTRIES", 3)
        for i in range(5):
            cache.store(key(i), payload(i))
            assert cache.lookup(key(i))[1] == HIT
        assert list(cache._memory) == [key(2), key(3), key(4)]
        cache.lookup(key(2))  # now the most recently used
        cache.lookup(key(0))  # read again, evicting key(3)
        assert list(cache._memory) == [key(4), key(2), key(0)]
        opened.clear()
        assert cache.lookup(key(3)) == (payload(3), HIT)
        assert opened == [cache.path(key(3))]

    def test_store_forgets_the_entry_it_replaces(self, cache):
        cache.store(key(1), payload(1))
        assert cache.lookup(key(1)) == (payload(1), HIT)
        cache.store(key(1), payload(2))
        assert cache.lookup(key(1)) == (payload(2), HIT)

    def test_gc_forgets_the_entries_it_removes(self, cache):
        for i in range(2):
            cache.store(key(i), payload(i))
            assert cache.lookup(key(i))[1] == HIT
        summary = cache.gc(max_age_seconds=0.0, now=time.time() + 10)
        assert summary["removed"] == 2
        assert cache.lookup(key(0)) == (None, MISS)
        assert cache.lookup(key(1)) == (None, MISS)
        assert len(cache._memory) == 0


class TestSharing:
    def test_four_threads_racing_lookup_get_identical_payloads(
            self, cache, monkeypatch):
        # more keys than the table holds, so threads race inserts,
        # reorders and evictions as well as reads
        monkeypatch.setattr(cache_module, "MEMORY_ENTRIES", 8)
        keys = [key(i) for i in range(16)]
        for i, k in enumerate(keys):
            cache.store(k, payload(i))
        shared = SweepCache(cache.root)
        barrier = threading.Barrier(4)
        results = [None] * 4

        def worker(slot: int) -> None:
            barrier.wait(timeout=30)
            results[slot] = [shared.lookup(k) for k in keys * 20]

        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = [(payload(i), HIT) for i in range(16)] * 20
        assert all(result == expected for result in results)
        assert len(shared._memory) == 8

    def test_mutating_a_rebuilt_measurement_leaves_the_payload(self, cache):
        plan = SweepPlan()
        plan.add_sweep(MachineRef.of("tiny"), "daxpy", [96],
                       protocol="cold", reps=1)
        run_plan(plan, cache=cache)
        warm = run_plan(plan, cache=cache)
        assert warm.stats.hits == 1
        measurement = warm.measurements[0]
        measurement.level_bytes["L1"] = -1.0
        measurement.level_bytes["extra"] = 0.0
        with open(cache.path(warm.keys[0]), encoding="utf-8") as handle:
            on_disk = json.load(handle)["payload"]
        remembered, status = cache.lookup(warm.keys[0])
        assert status == HIT and remembered == on_disk
        rebuilt = payload_to_measurement(remembered)
        assert rebuilt.level_bytes == on_disk["level_bytes"]
