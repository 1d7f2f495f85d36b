"""Sweep-cache garbage collection: age and size budgets."""

import json
import os
import time

import pytest

from repro.machine.ref import MachineRef
from repro.sweep import SweepCache, SweepPlan, run_plan

pytestmark = pytest.mark.sweep


def populate(cache: SweepCache, sizes) -> list:
    plan = SweepPlan()
    plan.add_sweep(MachineRef.of("tiny"), "daxpy", list(sizes), reps=1)
    run = run_plan(plan, cache=cache, jobs=1)
    return run.keys


class TestGc:
    def test_noop_when_within_budget(self, tmp_path):
        cache = SweepCache(str(tmp_path / "c"))
        keys = populate(cache, [64, 96])
        summary = cache.gc(max_bytes=10 ** 9, max_age_seconds=3600)
        assert summary["scanned"] == 2 and summary["removed"] == 0
        for key in keys:
            assert cache.lookup(key)[1] == "hit"

    def test_age_bound_drops_old_entries(self, tmp_path):
        cache = SweepCache(str(tmp_path / "c"))
        keys = populate(cache, [64, 96])
        old = cache.path(keys[0])
        past = time.time() - 7200
        os.utime(old, (past, past))
        summary = cache.gc(max_age_seconds=3600)
        assert summary["removed"] == 1
        assert cache.lookup(keys[0])[1] == "miss"
        assert cache.lookup(keys[1])[1] == "hit"

    def test_size_bound_evicts_oldest_first(self, tmp_path):
        cache = SweepCache(str(tmp_path / "c"))
        keys = populate(cache, [64, 96, 128])
        # order mtimes explicitly so eviction order is deterministic
        now = time.time()
        for age, key in zip((300, 200, 100), keys):
            os.utime(cache.path(key), (now - age, now - age))
        one_entry = os.path.getsize(cache.path(keys[2]))
        summary = cache.gc(max_bytes=one_entry + 16)
        assert summary["removed"] == 2
        # the newest survives
        assert cache.lookup(keys[2])[1] == "hit"
        assert cache.lookup(keys[0])[1] == "miss"
        assert cache.lookup(keys[1])[1] == "miss"

    def test_stray_tmp_files_always_removed(self, tmp_path):
        cache = SweepCache(str(tmp_path / "c"))
        populate(cache, [64])
        shard = os.path.dirname(cache.path("ab" + "0" * 62))
        os.makedirs(shard, exist_ok=True)
        stray = os.path.join(shard, "leftover.tmp")
        with open(stray, "w", encoding="utf-8") as handle:
            handle.write("torn write")
        summary = cache.gc(max_bytes=10 ** 9)
        assert not os.path.exists(stray)
        assert summary["removed"] >= 1

    def test_empty_shards_pruned(self, tmp_path):
        cache = SweepCache(str(tmp_path / "c"))
        keys = populate(cache, [64])
        cache.gc(max_age_seconds=0.0, now=time.time() + 10)
        assert cache.lookup(keys[0])[1] == "miss"
        assert os.listdir(cache.root) == []

    def test_gc_on_missing_root_is_a_noop(self, tmp_path):
        cache = SweepCache(str(tmp_path / "never-created"))
        summary = cache.gc(max_bytes=0)
        assert summary == {"scanned": 0, "removed": 0,
                           "reclaimed_bytes": 0, "kept_bytes": 0}


class TestGcCli:
    def test_cache_gc_command(self, tmp_path, capsys):
        from repro.cli import main
        cache = SweepCache(str(tmp_path / "c"))
        populate(cache, [64, 96])
        code = main(["cache", "gc", "--max-age", "1h", "--json",
                     "--cache-dir", cache.root])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scanned"] == 2 and doc["removed"] == 0

    def test_cache_gc_requires_a_bound(self, tmp_path, capsys):
        from repro.cli import main
        code = main(["cache", "gc", "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "needs" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", [
        ["--max-bytes", "-1"], ["--max-bytes", "1e400"],
        ["--max-bytes", "nan"], ["--max-bytes=-2k"],
        ["--max-age=-1"], ["--max-age", "nan"], ["--max-age", "inf"],
        ["--max-age=-1h"],
    ], ids=lambda argv: " ".join(argv))
    def test_negative_or_non_finite_bound_is_a_usage_error(
            self, tmp_path, capsys, bound):
        from repro.cli import main
        cache = SweepCache(str(tmp_path / "c"))
        keys = populate(cache, [64, 96])
        with pytest.raises(SystemExit) as exc:
            main(["cache", "gc", *bound, "--cache-dir", cache.root])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err
        assert all(cache.lookup(key)[1] == "hit" for key in keys)

    @pytest.mark.parametrize("bound", ["--max-bytes", "--max-age"])
    def test_zero_bound_still_works(self, tmp_path, capsys, bound):
        from repro.cli import main
        cache = SweepCache(str(tmp_path / "c"))
        populate(cache, [64, 96])
        code = main(["cache", "gc", bound, "0", "--json",
                     "--cache-dir", cache.root])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scanned"] == 2
        if bound == "--max-bytes":
            assert doc["removed"] == 2

    def test_size_and_age_spellings(self):
        from repro.cli import _parse_age, _parse_size
        assert _parse_size("2k") == 2048
        assert _parse_size("1M") == 1024 ** 2
        assert _parse_size("123") == 123
        assert _parse_age("7d") == 7 * 86400.0
        assert _parse_age("90") == 90.0
