"""CLI surface of ``repro profile`` and the ``--json`` flags."""

import json

from repro.cli import build_parser, main


class TestParser:
    def test_profile_subcommand_exists(self):
        args = build_parser().parse_args(["profile", "triad"])
        assert args.command == "profile"
        assert args.n == 4096  # size is optional

    def test_profile_accepts_outputs(self):
        args = build_parser().parse_args(
            ["profile", "triad", "512", "--trace-out", "t.json",
             "--metrics-out", "m.prom", "--machine", "snb"]
        )
        assert args.trace_out == "t.json"
        assert args.metrics_out == "m.prom"


class TestProfileCommand:
    def test_profile_prints_phase_table(self, capsys):
        code = main(["profile", "triad", "512", "--machine", "tiny",
                     "--scale", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "W counted" in out
        assert "phase" in out
        assert "dominant bound" in out
        assert "bound attribution" in out

    def test_profile_writes_valid_chrome_trace(self, tmp_path, capsys):
        trace_file = tmp_path / "t.json"
        code = main(["profile", "triad", "512", "--machine", "tiny",
                     "--scale", "1", "--trace-out", str(trace_file)])
        assert code == 0
        doc = json.loads(trace_file.read_text())
        assert "traceEvents" in doc
        phases = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert phases, "expected at least one phase event"
        assert all("ts" in e and "dur" in e for e in phases)

    def test_profile_writes_prometheus_metrics(self, tmp_path, capsys):
        metrics_file = tmp_path / "m.prom"
        code = main(["profile", "triad", "512", "--machine", "tiny",
                     "--scale", "1", "--metrics-out", str(metrics_file)])
        assert code == 0
        text = metrics_file.read_text()
        assert "# TYPE repro_cycles_total counter" in text
        assert "repro_dram_lines_total" in text

    def test_profile_metrics_keep_every_family(self, tmp_path, capsys):
        # the machine-plane families, kinds and labels `profile
        # --metrics-out` has always written, the measurement's rep
        # counts and kernel load state, and nothing else
        metrics_file = tmp_path / "m.prom"
        code = main(["profile", "triad", "512", "--machine", "tiny",
                     "--scale", "1", "--metrics-out", str(metrics_file)])
        assert code == 0
        text = metrics_file.read_text()
        types = {line.split()[2]: line.split()[3]
                 for line in text.splitlines()
                 if line.startswith("# TYPE ")}
        assert types == {
            "repro_phase_count": "gauge",
            "repro_cycles_total": "counter",
            "repro_bound_cycles_total": "counter",
            "repro_cache_events_total": "counter",
            "repro_dram_lines_total": "counter",
            "repro_prefetch_total": "counter",
            "repro_reissue_slots_total": "counter",
            "repro_reissue_overcounted_flops_total": "counter",
            "repro_bandwidth_utilization": "gauge",
            "repro_avg_outstanding_misses": "gauge",
            "repro_measure_reps_total": "counter",
            "repro_measure_replay_skipped_total": "counter",
            "repro_ckernel_status": "gauge",
        }
        assert 'repro_measure_reps_total{mode="simulated"}' in text
        assert 'repro_dram_lines_total{dir="read"}' in text
        assert 'repro_prefetch_total{engine="stride",kind="issued"}' in text
        assert 'repro_bandwidth_utilization{level="dram"}' in text
        assert 'repro_cache_events_total{event="l1_hits"}' in text
        assert 'repro_bound_cycles_total{bound="' in text

    def test_profile_json(self, capsys):
        code = main(["profile", "triad", "512", "--machine", "tiny",
                     "--scale", "1", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kernel"] == "triad"
        assert doc["trace"]["phase_count"] >= 1


class TestJsonFlags:
    def test_measure_json(self, capsys):
        code = main(["measure", "daxpy", "1024", "--machine", "tiny",
                     "--scale", "1", "--reps", "1", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kernel"] == "daxpy"
        assert doc["traffic_bytes"] >= 0
        assert doc["summaries"]["runtime"]["count"] == 1

    def test_roofline_json(self, capsys):
        code = main(["roofline", "--machine", "tiny", "--scale", "1",
                     "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "model" in doc

    def test_snb_alias_resolves(self):
        from repro.machine.presets import make_machine
        assert make_machine("snb", scale=0.125).spec.name.startswith("snb-ep")
