"""CLI surface of PR 6: ``repro selfprofile`` and ``repro benchgate``.

The selfprofile runs use daxpy on the tiny machine so the suite stays
fast; the acceptance-sized run (``selfprofile dgemm --n 512``) is
exercised by the CI smoke job instead.
"""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.engine import ckernel
from repro.obs import REGISTRY, SPANS


def _assert_compile_tier_telemetry(pc):
    """Compile-tier work flowed: on the C datapath whole nests run
    through the nest executor; elsewhere flat loops resolve plans (the
    symbolic tier interns process-globally, so assert lookups, not a
    per-run miss)."""
    if ckernel.available():
        assert pc["nest_runs"] > 0
    else:
        assert pc["hits"] + pc["misses"] > 0
        assert pc["built_lines"] > 0


@pytest.fixture(autouse=True)
def _clean_observability():
    yield
    SPANS.reset()
    SPANS.disable()
    REGISTRY.reset()


def _engine_baseline(tmp_path):
    doc = {
        "bench": "s5_engine",
        "sweeps": {
            "daxpy": {"fast_seconds": 0.1, "reference_seconds": 2.0,
                      "speedup": 20.0, "plan_cache": {"hit_rate": 0.0},
                      "nest": {"coverage": 1.0}},
            "dgemm": {"fast_seconds": 0.75, "reference_seconds": 9.0,
                      "speedup": 12.0, "plan_cache": {"hit_rate": 0.0},
                      "nest": {"coverage": 1.0}},
        },
        "amortization": {"amortization_factor": 1.75,
                         "marginal_rep_seconds": 0.1,
                         "first_measurement_seconds": 0.2},
    }
    path = tmp_path / "BENCH_engine.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        assert parser.parse_args(
            ["selfprofile", "daxpy"]).command == "selfprofile"
        assert parser.parse_args(["benchgate"]).command == "benchgate"

    def test_selfprofile_accepts_aliases(self):
        args = build_parser().parse_args(["selfprofile", "dgemm"])
        assert args.kernel == "dgemm"
        assert args.machine == "tiny"
        assert args.n == 512


class TestSelfprofile:
    def test_profiles_and_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "prof"
        rc = main(["selfprofile", "daxpy", "--n", "512",
                   "--out-dir", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        # the hotspot table names the span taxonomy's tiers
        assert "engine.execute" in printed
        assert "engine.compile" in printed
        flames = [f for f in os.listdir(out) if f.endswith(".trace.json")]
        proms = [f for f in os.listdir(out) if f.endswith(".metrics.prom")]
        assert len(flames) == 1 and len(proms) == 1
        doc = json.load(open(out / flames[0]))
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        # distinct compile/execute/cache/prefetch/sweep span categories
        assert "engine.compile" in names
        assert "engine.execute" in names
        assert any(n.startswith("cache.") for n in names)
        assert any(n.startswith("prefetch.") for n in names)
        assert any(n.startswith("sweep.") for n in names)
        prom_text = (out / proms[0]).read_text()
        assert "repro_plan_cache_lookups_total" in prom_text

    def test_json_mode(self, tmp_path, capsys):
        rc = main(["selfprofile", "daxpy", "--n", "256", "--json",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kernel"] == "daxpy"
        assert doc["profile"]["spans"] > 0
        _assert_compile_tier_telemetry(doc["plan_cache"])
        assert "repro_sweep_point_seconds" in doc["metrics"]
        hotspot_names = {h["name"] for h in doc["profile"]["hotspots"]}
        assert "engine.execute" in hotspot_names

    def test_profiler_left_disabled_afterwards(self, tmp_path):
        main(["selfprofile", "daxpy", "--n", "256",
              "--out-dir", str(tmp_path)])
        assert SPANS.enabled is False

    def test_dropped_spans_are_surfaced_and_warned(self, tmp_path,
                                                   capsys, monkeypatch):
        monkeypatch.setattr(SPANS, "max_records", 10)
        rc = main(["selfprofile", "daxpy", "--n", "256",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "dropped past the retention cap" in captured.out
        assert "retention cap" in captured.err  # nonzero-dropped warning
        assert "flame view is truncated" in captured.err

    def test_dropped_reported_in_json_and_zero_without_cap(
            self, tmp_path, capsys):
        rc = main(["selfprofile", "daxpy", "--n", "256", "--json",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["dropped"] == 0
        assert "retention cap" not in captured.err
        assert SPANS.records == []


class TestBenchgateCli:
    def test_pass_mode(self, tmp_path, capsys):
        base = _engine_baseline(tmp_path)
        rc = main(["benchgate", "--baseline", base, "--current", base])
        assert rc == 0
        assert "all gates passed" in capsys.readouterr().out

    def test_injected_slowdown_fails(self, tmp_path, capsys):
        base = _engine_baseline(tmp_path)
        rc = main(["benchgate", "--baseline", base, "--current", base,
                   "--inject-slowdown", "2.0"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_no_baselines_found_is_an_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["benchgate"]) == 2

    def test_current_requires_single_baseline(self, tmp_path):
        base = _engine_baseline(tmp_path)
        rc = main(["benchgate", "--baseline", base, "--baseline", base,
                   "--current", base])
        assert rc == 2

    def test_kind_mismatch_is_an_error(self, tmp_path):
        base = _engine_baseline(tmp_path)
        other = tmp_path / "BENCH_timeline.json"
        other.write_text(json.dumps({
            "bench": "s3_timeline",
            "overhead_vs_untraced": {"sampler": 1.5, "nullsink": 1.3},
        }))
        rc = main(["benchgate", "--baseline", base,
                   "--current", str(other)])
        assert rc == 2


class TestSweepPlanCacheSatellite:
    def test_sweep_json_carries_plan_cache(self, tmp_path, capsys):
        rc = main(["sweep", "daxpy", "--sizes", "256", "--machine", "tiny",
                   "--reps", "1", "--json", "--no-cache"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        pc = doc["plan_cache"]
        _assert_compile_tier_telemetry(pc)
        assert 0.0 <= pc["hit_rate"] <= 1.0

    def test_sweep_metrics_out_includes_plan_cache(self, tmp_path, capsys):
        metrics = tmp_path / "sweep.prom"
        rc = main(["sweep", "daxpy", "--sizes", "256", "--machine", "tiny",
                   "--reps", "1", "--no-cache",
                   "--metrics-out", str(metrics)])
        assert rc == 0
        text = metrics.read_text()
        assert "repro_plan_cache_lookups_total" in text
        assert "repro_sweep_points_total" in text
