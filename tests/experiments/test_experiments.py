"""Experiment framework and a fast subset of actual experiments."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    Check,
    ExperimentConfig,
    ExperimentResult,
    Table,
    experiment_ids,
    make_experiment,
    render_report,
    run_experiments,
)
from repro.experiments.report import write_artifacts
from repro.machine.ref import MachineRef


class TestTable:
    def test_add_and_render(self):
        table = Table("Title", ["a", "b"])
        table.add(1, 2.5)
        table.add("x", "y")
        text = table.render()
        assert "**Title**" in text
        assert "| a | b |" in text
        assert "| 1 | 2.5 |" in text

    def test_row_width_checked(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ExperimentError):
            table.add(1)


class TestResult:
    def test_checks_and_passed(self):
        result = ExperimentResult("X1", "t", "p")
        result.check("ok", True, "fine")
        assert result.passed
        result.check("bad", False)
        assert not result.passed

    def test_render_contains_everything(self):
        result = ExperimentResult("X1", "Title", "paper fig 9")
        result.tables.append(Table("T", ["c"], [[1]]))
        result.check("criterion", True, "detail")
        result.note("a note")
        text = result.render()
        assert "X1 — Title" in text
        assert "paper fig 9" in text
        assert "[PASS] criterion" in text
        assert "> a note" in text

    def test_check_render_marks(self):
        assert "[PASS]" in Check("c", True).render()
        assert "[FAIL]" in Check("c", False, "why").render()


class TestRegistry:
    def test_ids_ordered_and_complete(self):
        ids = experiment_ids()
        assert ids[0] == "T1"
        assert "F2" in ids and "A3" in ids
        assert len(ids) == len(set(ids)) == 21

    def test_make_experiment(self):
        exp = make_experiment("F2")
        assert exp.id == "F2"
        with pytest.raises(ExperimentError):
            make_experiment("F99")


def tiny_config():
    return ExperimentConfig(reps=1, machine_ref=MachineRef.of("tiny"))


class TestFastExperiments:
    """Run the cheap experiments for real on the tiny machine."""

    def test_f1_example_roofline(self):
        result = make_experiment("F1").run(tiny_config())
        assert result.passed
        assert "f1_example.svg" in result.artifacts

    def test_t2_peak_flops(self):
        result = make_experiment("T2").run(tiny_config())
        assert result.passed

    def test_f2_work_validation(self):
        # needs an 8-way L1: the tiny machine's 2-way L1 cannot hold
        # triad's three streams conflict-free, so warm ratios inflate
        config = ExperimentConfig(reps=1, scale=0.03125)
        result = make_experiment("F2").run(config)
        assert result.passed, [c.name for c in result.checks if not c.passed]

    def test_f2b_fma_counter(self):
        result = make_experiment("F2b").run(ExperimentConfig(
            reps=1, scale=0.125))
        assert result.passed

    def test_f11_turbo(self):
        result = make_experiment("F11").run(tiny_config())
        assert result.passed


class TestReport:
    def test_render_report_summary(self):
        passing = ExperimentResult("X1", "a", "b")
        passing.check("c", True)
        failing = ExperimentResult("X2", "a", "b")
        failing.check("c", False)
        text = render_report([passing, failing])
        assert "1/2 experiments pass" in text

    def test_report_holds_nothing_from_the_host(self, tmp_path):
        import os
        import re
        import sys
        import tempfile

        # the first render simulates every point, the second replays
        # them from the sweep cache; CI diffs the committed report
        # against a fresh one, so both must give the same bytes
        ids = ["T1", "T2", "F1", "F4", "F11"]
        config = ExperimentConfig(cache_dir=str(tmp_path / "cache"))
        first = render_report(run_experiments(ids, config, verbose=False),
                              config)
        second = render_report(run_experiments(ids, config, verbose=False),
                               config)
        assert first == second
        # none of these ids reports a simulated time, so any duration
        # would be a host wall time
        duration = re.compile(r"\d(\.\d+)? ?(s|ms|us|µs|sec|seconds)\b")
        assert not duration.search(first), duration.search(first)
        for path in {os.getcwd(), os.path.expanduser("~"),
                     tempfile.gettempdir(), sys.prefix, str(tmp_path)}:
            assert len(path) < 2 or path not in first, path

    def test_write_artifacts(self, tmp_path):
        result = ExperimentResult("X1", "a", "b")
        result.artifacts["plot.svg"] = "<svg></svg>"
        written = write_artifacts([result], str(tmp_path))
        assert len(written) == 1
        assert (tmp_path / "plot.svg").read_text() == "<svg></svg>"
