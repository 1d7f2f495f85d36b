"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run real iterations (a few seconds each) from the repository root
and write only under ``.bench_build/``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import ledger  # noqa: E402
import run as bench  # noqa: E402


@pytest.fixture
def run_dir():
    run = bench.Run(ROOT, "test")
    bench.build_ckernel(run)
    yield run
    run.close()


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def test_corrupted_digest_is_a_failure(run_dir, monkeypatch):
    monkeypatch.setattr(bench, "expected_digest", lambda workload: "0" * 64)
    report = bench.run_child(run_dir, "sweep-f4-pool", traced=False)
    assert "digest" in report["error"]
    # a failed iteration's times never reach the metrics
    good = {"setup_s": 1.0, "work_s": 2.0, "peak_rss_mb": 3.0,
            "traced": False, "scale": 1.0, "error": None}
    report.update(traced=False, scale=1.0)
    metrics = bench.batch_metrics([report, good], False, run_dir)
    assert metrics == {"setup_s": 1.0, "wall_s": 2.0, "peak_rss_mb": 3.0}
    with pytest.raises(bench.BenchError):
        bench.batch_metrics([report], False, run_dir)


def test_python_datapath_child_is_a_failure(run_dir):
    report = bench.run_child(run_dir, "analyze-dgemm", traced=False,
                             extra_env={"REPRO_CKERNEL": "0"})
    assert "C kernel" in report["error"]


def test_untraced_child_has_no_wrapper(run_dir):
    plain = bench.run_child(run_dir, "sweep-f4-pool", traced=False)
    assert plain["error"] is None
    assert plain["wrappers"] == 0
    traced = bench.run_child(run_dir, "sweep-f4-pool", traced=True)
    assert traced["error"] is None
    assert traced["wrappers"] > 0


def test_ledger_install_and_uninstall(tmp_path):
    from repro.cpu import core
    from repro.sweep import executor

    original = core.Core.execute
    book = ledger.Ledger(str(tmp_path))
    assert book.install() > 0
    try:
        assert ledger.installed_count() > 0
        assert core.Core.execute is not original
        # functions imported by name are rebound where they are looked up
        assert getattr(core.phase_cycles, ledger.MARK) == "cpu.timing"
        assert getattr(executor.measure_kernel, ledger.MARK) == \
            "measure.kernel"
    finally:
        book.uninstall()
    assert ledger.installed_count() == 0
    assert core.Core.execute is original


def test_ledger_self_time_excludes_nested_layers(tmp_path):
    book = ledger.Ledger(str(tmp_path))
    with book.span("bench.work", "root"):
        with book.span("outer"):
            with book.span("inner"):
                sum(range(100_000))
        sum(range(100_000))
    doc = book.to_doc()
    outer, inner = doc["totals"]["outer"], doc["totals"]["inner"]
    assert outer[2] == outer[1] - inner[1]
    assert doc["covered_ns"] == outer[1]
    assert doc["root_ns"] == doc["totals"]["bench.work"][1] > outer[1]
    (thread,) = doc["threads"]
    names = [span[0] for span in thread["spans"]]
    assert names == ["bench.work", "outer", "inner"]
    assert [span[3] for span in thread["spans"]] == [None, 0, 1]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = run_cli("--workload", "sweep-f4-pool", "--seed", "3",
                   "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)[section]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("--workload", "analyze-dgemm", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_serve_traffic_is_seeded_and_valid():
    def rounds(seed):
        rng, used = random.Random(seed), set()
        return [bench.make_round(rng, used) for _ in range(50)], used

    first, sizes = rounds(7)
    assert rounds(7)[0] == first
    assert rounds(8)[0] != first
    assert len(sizes) == 50  # every miss is a distinct size
    for reqs in first:
        misses = [n for kind, n in reqs if kind == "measure"]
        assert len(reqs) == bench.ROUND_HITS + 1 and len(misses) == 1
        assert misses[0] % 8 == 0
