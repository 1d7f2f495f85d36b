"""Extended CLI coverage: explain subcommand, flags, error paths."""

import pytest

from repro.cli import build_parser, main
from repro.roofline.ert import DEFAULT_FLOP_COUNTS


class TestExplainCommand:
    def test_explain_runs_and_names_the_bound(self, capsys):
        code = main(["explain", "daxpy", "8192", "--machine", "tiny",
                     "--protocol", "cold"])
        assert code == 0
        out = capsys.readouterr().out
        assert "bound by" in out
        assert "dram_bandwidth" in out

    def test_explain_warm(self, capsys):
        code = main(["explain", "daxpy", "64", "--machine", "tiny"])
        assert code == 0
        assert "mem_issue" in capsys.readouterr().out

    def test_explain_bad_size(self, capsys):
        code = main(["explain", "fft", "1000", "--machine", "tiny"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestMeasureVariants:
    def test_measure_warm_spmv(self, capsys):
        code = main(["measure", "spmv", "512", "--machine", "tiny",
                     "--protocol", "warm", "--reps", "1"])
        assert code == 0
        assert "flops/byte" in capsys.readouterr().out

    def test_measure_multithreaded(self, capsys):
        code = main(["measure", "daxpy", "4096", "--machine", "tiny",
                     "--threads", "2", "--reps", "1"])
        assert code == 0
        assert "2 thread(s)" in capsys.readouterr().out

    def test_roofline_multithreaded(self, capsys):
        code = main(["roofline", "--machine", "tiny", "--threads", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2t" in out  # thread-count labelled ceilings


class TestErtCommand:
    def test_ert_prints_ceiling_table(self, capsys):
        code = main(["ert", "--machine", "tiny", "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        for level in ("L1", "L2", "L3", "DRAM"):
            assert level in out
        assert "compute : ERT peak" in out

    def test_ert_json_has_all_levels(self, capsys):
        import json as _json

        code = main(["ert", "--machine", "tiny", "--json", "--no-cache"])
        assert code == 0
        doc = _json.loads(capsys.readouterr().out)
        assert set(doc["hierarchical"]["levels"]) == \
            {"L1", "L2", "L3", "DRAM"}

    def test_ert_plot_renders_bands(self, capsys):
        code = main(["ert", "--machine", "tiny", "--plot", "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "L1 ERT" in out and "DRAM ERT" in out


class TestAnalyzeCommand:
    def test_analyze_alias_and_table(self, capsys):
        code = main(["analyze", "dgemm", "--sizes", "16,32",
                     "--machine", "tiny", "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dgemm-tiled@L1" in out and "dgemm-tiled@DRAM" in out
        assert "I@DRAM [F/B]" in out

    def test_analyze_artifacts(self, tmp_path, capsys):
        code = main(["analyze", "daxpy", "--sizes", "256",
                     "--machine", "tiny", "--svg", "--json-out",
                     "--out-dir", str(tmp_path), "--no-cache"])
        assert code == 0
        import json as _json

        svg = (tmp_path / "daxpy_tiny.svg").read_text()
        assert svg.startswith("<svg")
        doc = _json.loads((tmp_path / "daxpy_tiny.json").read_text())
        assert doc["kernel"] == "daxpy"
        assert len(doc["points"]) == 4

    def test_plan_cache_counts_only_this_runs_simulations(self, tmp_path,
                                                          capsys):
        import json as _json

        from repro.engine import ckernel

        argv = ["analyze", "dgemm-tiled", "--sizes", "16,32",
                "--machine", "tiny", "--json",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = _json.loads(capsys.readouterr().out)["plan_cache"]
        if ckernel.available():
            assert first["nest_runs"] > 0
        else:
            assert first["hits"] + first["misses"] > 0
        # every point replays from the sweep cache: nothing simulated
        assert main(argv) == 0
        second = _json.loads(capsys.readouterr().out)["plan_cache"]
        assert set(second) == set(first)
        assert all(value == 0 for value in second.values()), second

    def test_analyze_empty_sizes_errors(self, capsys):
        code = main(["analyze", "daxpy", "--sizes", ",",
                     "--machine", "tiny", "--no-cache"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestIntegerListArguments:
    """A bad entry in a comma-separated integer list is a usage error
    (exit 2), not a ValueError traceback."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "daxpy", "--sizes", "1x", "--machine", "tiny"],
        ["selfprofile", "daxpy", "--sizes", "16,1x"],
        ["analyze", "daxpy", "--sizes", "1x", "--machine", "tiny"],
        ["analyze", "daxpy", "--sizes", "16", "--flops", "a",
         "--machine", "tiny"],
        ["ert", "--flops", "1,a", "--machine", "tiny"],
    ], ids=["sweep-sizes", "selfprofile-sizes", "analyze-sizes",
            "analyze-flops", "ert-flops"])
    def test_bad_entry_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "bad integer list" in capsys.readouterr().err

    def test_lists_parse_and_skip_empty_entries(self):
        args = build_parser().parse_args(
            ["analyze", "daxpy", "--sizes", "16,,32,", "--flops", "1,4"])
        assert args.sizes == [16, 32]
        assert args.flops == [1, 4]

    def test_flops_default_is_the_ert_grid(self):
        for argv in (["ert"], ["analyze", "daxpy", "--sizes", "16"]):
            args = build_parser().parse_args(argv)
            assert args.flops == list(DEFAULT_FLOP_COUNTS)

    def test_sweep_empty_sizes_keeps_its_message(self, capsys):
        code = main(["sweep", "daxpy", "--sizes", ",",
                     "--machine", "tiny"])
        assert code == 2
        assert "sweep needs either --grid" in capsys.readouterr().err
