"""CLI surface of the sweep engine: ``repro sweep`` and the global
``--jobs`` / ``--no-cache`` / ``--cache-dir`` flags."""

import json
import os

import pytest

from repro.cli import build_parser, main

pytestmark = pytest.mark.sweep


class TestParser:
    def test_sweep_subcommand_parses(self):
        args = build_parser().parse_args(
            ["sweep", "--grid", "f4", "--machine", "tiny"])
        assert args.command == "sweep"
        assert args.grid == "f4"

    def test_global_flags_before_subcommand(self):
        args = build_parser().parse_args(
            ["--jobs", "4", "--no-cache", "sweep", "--grid", "f4"])
        assert args.jobs == 4 and args.no_cache is True

    def test_subcommand_flags_override_defaults(self):
        args = build_parser().parse_args(
            ["sweep", "--grid", "f4", "--jobs", "2",
             "--cache-dir", "/tmp/x"])
        assert args.jobs == 2 and args.cache_dir == "/tmp/x"

    def test_global_value_survives_subparser(self):
        # SUPPRESS defaults in the subparser must not clobber the
        # value parsed by the main parser
        args = build_parser().parse_args(
            ["--cache-dir", "/tmp/y", "experiment", "T1"])
        assert args.cache_dir == "/tmp/y"

    def test_unknown_grid_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--grid", "f99"])


class TestSweepCommand:
    def test_grid_then_replay_hits_100_percent(self, tmp_path, capsys):
        argv = ["sweep", "--grid", "f4", "--machine", "tiny",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "miss" in cold and "(0% hit rate)" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "(100% hit rate)" in warm

    def test_json_runs_are_bit_identical(self, tmp_path, capsys):
        argv = ["sweep", "--grid", "f4", "--machine", "tiny",
                "--cache-dir", str(tmp_path / "cache"), "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["stats"]["misses"] > 0
        assert second["stats"]["hit_rate"] == 1.0
        assert second["measurements"] == first["measurements"]
        assert second["keys"] == first["keys"]

    def test_explicit_kernel_form(self, tmp_path, capsys):
        assert main(["sweep", "daxpy", "--sizes", "64,128",
                     "--protocol", "cold,warm", "--reps", "1",
                     "--machine", "tiny",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert out.count("daxpy") >= 4  # 2 sizes x 2 protocols

    def test_no_cache_never_hits(self, tmp_path, capsys):
        argv = ["sweep", "--grid", "f4", "--machine", "tiny",
                "--no-cache", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0 and main(argv) == 0
        out = capsys.readouterr().out
        assert "(100% hit rate)" not in out
        assert not (tmp_path / "cache").exists()

    def test_missing_grid_and_kernel_is_an_error(self, capsys):
        assert main(["sweep"]) == 2
        assert "error" in capsys.readouterr().err

    def test_trace_and_metrics_export(self, tmp_path, capsys):
        trace = tmp_path / "sweep.trace.json"
        metrics = tmp_path / "sweep.prom"
        assert main(["sweep", "--grid", "f4", "--machine", "tiny",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--trace-out", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        doc = json.loads(trace.read_text())
        names = [e.get("name", "") for e in doc["traceEvents"]]
        assert any("daxpy" in n for n in names)
        text = metrics.read_text()
        assert 'repro_sweep_points_total{outcome="miss"}' in text
        assert "repro_sweep_cache_hit_rate" in text

    def test_flame_out_merges_worker_tracks(self, tmp_path, capsys):
        from repro.obs.spans import SPANS
        flame = tmp_path / "flame.json"
        assert main(["--jobs", "2", "sweep", "daxpy", "--sizes", "96,192",
                     "--machine", "tiny", "--reps", "1", "--no-cache",
                     "--flame-out", str(flame), "--json"]) == 0
        workers = json.loads(capsys.readouterr().out)["telemetry"][
            "workers"]
        assert not SPANS.enabled
        events = json.loads(flame.read_text())["traceEvents"]
        tracks = {e["args"]["name"] for e in events
                  if e.get("ph") == "M" and e["name"] == "thread_name"}
        points = {e["tid"] for e in events
                  if e.get("ph") == "X" and e["name"] == "sweep.point"}
        assert points and points == {w["pid"] for w in workers}
        assert os.getpid() not in points
        assert {f"sweep worker {pid}" for pid in points} <= tracks
        SPANS.reset()

    def test_metrics_out_has_no_machine_plane_family(self, tmp_path,
                                                     capsys):
        # a sweep's exposition is the metrics registry the run filled:
        # sweep, plan-cache and latency families, and none of the
        # trace-summary families, which a sweep has no samples for
        metrics = tmp_path / "sweep.prom"
        assert main(["sweep", "daxpy", "--sizes", "96,160",
                     "--machine", "tiny", "--reps", "1", "--no-cache",
                     "--metrics-out", str(metrics)]) == 0
        text = metrics.read_text()
        for family in ("repro_phase_count", "repro_cycles_total",
                       "repro_bound_cycles_total",
                       "repro_cache_events_total",
                       "repro_dram_lines_total", "repro_prefetch_total",
                       "repro_reissue_slots_total",
                       "repro_reissue_overcounted_flops_total",
                       "repro_bandwidth_utilization",
                       "repro_avg_outstanding_misses"):
            assert family not in text, family
        assert 'repro_sweep_points_total{outcome="miss"} 2' in text
        assert "repro_sweep_point_seconds_count 2" in text
        assert "# TYPE repro_plan_cache_lookups_total counter" in text

    @pytest.mark.parametrize("flags", [["--jobs", "2"],
                                       ["--jobs", "1", "--telemetry"]],
                             ids=["pool", "serial-telemetry"])
    def test_rep_counts_do_not_depend_on_the_process(self, tmp_path,
                                                     capsys, flags):
        # the measurements' rep counts reach the exposition once,
        # whichever process simulated the point and whether or not
        # telemetry carried them there
        def measure_lines(extra):
            metrics = tmp_path / "sweep.prom"
            assert main(["sweep", "daxpy", "--sizes", "96,160",
                         "--machine", "tiny", "--reps", "3", "--no-cache",
                         "--metrics-out", str(metrics)] + extra) == 0
            return sorted(line for line in metrics.read_text().splitlines()
                          if line.startswith("repro_measure_"))

        serial = measure_lines(["--jobs", "1", "--no-telemetry"])
        assert measure_lines(flags) == serial
        # two points of three reps each
        assert sum(float(line.split()[1]) for line in serial
                   if line.startswith("repro_measure_reps_total{")) == 6


class TestExperimentIntegration:
    def test_experiment_reports_cache_stats(self, tmp_path, capsys):
        argv = ["experiment", "F4",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(tmp_path / "report.md")]
        assert main(argv) == 0
        assert "sweep cache:" in capsys.readouterr().err
        assert main(argv) == 0
        assert "(100% hit rate)" in capsys.readouterr().err
