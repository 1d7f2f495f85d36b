"""CLI surface tests."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (["list"],
                     ["roofline", "--machine", "tiny"],
                     ["measure", "daxpy", "1024"],
                     ["experiment", "T1"]):
            assert parser.parse_args(argv).command == argv[0]

    def test_unknown_kernel_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["measure", "sgemm", "64"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_conformance_report_to_a_bare_file_name(self, tmp_path,
                                                    monkeypatch, capsys):
        # a report path without a directory part needs no directory made
        monkeypatch.chdir(tmp_path)
        assert main(["conformance", "--n", "5", "--kernels", "none",
                     "--report", "eng.jsonl"]) == 0
        assert "report: eng.jsonl" in capsys.readouterr().out
        summary = json.loads(
            (tmp_path / "eng.jsonl").read_text().splitlines()[0])
        assert summary["kind"] == "summary"
        assert summary["programs"] == 5
        assert summary["divergent_programs"] == 0

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "snb-ep" in out
        assert "daxpy" in out
        assert "T1" in out

    def test_roofline_tiny(self, capsys):
        assert main(["roofline", "--machine", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Roofline:" in out
        assert "ridge" in out

    def test_measure_tiny(self, capsys):
        code = main(["measure", "daxpy", "4096", "--machine", "tiny",
                     "--protocol", "cold", "--reps", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "W counted" in out
        assert "flops/byte" in out

    def test_measure_bad_n_is_handled(self, capsys):
        code = main(["measure", "fft", "1000", "--machine", "tiny",
                     "--reps", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_measure_nan_scale_is_handled(self, capsys):
        code = main(["measure", "daxpy", "96", "--machine", "snb",
                     "--scale", "nan"])
        assert code == 2
        assert "error: scale must be in (0, 1]" in capsys.readouterr().err

    def test_experiment_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        code = main(["experiment", "T1", "--output", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert "T1 — Platform characteristics" in text

    def test_experiment_stdout_is_exactly_the_report(self, capsys):
        from repro.experiments import (
            ExperimentConfig,
            render_report,
            run_experiments,
        )

        assert main(["experiment", "T1"]) == 0
        captured = capsys.readouterr()
        config = ExperimentConfig()
        report = render_report(run_experiments(["T1"], config,
                                               verbose=False), config)
        assert captured.out == report
        # progress lines carry wall times, so they go to stderr
        assert "[T1] ok (" in captured.err

    def test_experiment_artifacts(self, tmp_path):
        art_dir = tmp_path / "art"
        code = main(["experiment", "F1", "--output",
                     str(tmp_path / "r.md"), "--artifacts", str(art_dir)])
        assert code == 0
        assert (art_dir / "f1_example.svg").exists()
