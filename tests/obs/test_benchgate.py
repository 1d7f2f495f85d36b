"""Bench-compare regression gate: specs, comparison, slowdown injection."""

import json

import pytest

from repro.obs.benchgate import (
    BenchGateError,
    compare_docs,
    gate_checks_for,
    inject_slowdown,
    run_gate,
)


def engine_doc():
    # shaped like the nest-executor BENCH_engine.json: the specs carry
    # absolute floors (dgemm speedup >= 10, nest coverage >= 0.95)
    # that a realistic doc must clear
    return {
        "bench": "s5_engine",
        "sweeps": {
            "daxpy": {"fast_seconds": 0.1, "reference_seconds": 2.0,
                      "speedup": 20.0,
                      "plan_cache": {"hit_rate": 0.0},
                      "nest": {"coverage": 1.0}},
            "dgemm": {"fast_seconds": 0.75, "reference_seconds": 9.0,
                      "speedup": 12.0,
                      "plan_cache": {"hit_rate": 0.0},
                      "nest": {"coverage": 1.0}},
        },
        "amortization": {"amortization_factor": 1.75,
                         "marginal_rep_seconds": 0.1,
                         "first_measurement_seconds": 0.2},
    }


def selfprofile_doc():
    return {
        "bench": "s6_selfprofile",
        "disabled": {"span_call_ns": 250.0, "activations": 7000,
                     "overhead_fraction": 0.0003},
        "enabled": {"overhead_factor": 1.1},
        "run_seconds": {"disabled": 8.0, "enabled": 8.8},
    }


def timeline_doc():
    return {
        "bench": "s3_timeline",
        "overhead_vs_untraced": {"sampler": 1.5, "nullsink": 1.3},
        "run_seconds": {"untraced": 1.0, "nullsink": 1.3, "sampler": 1.5},
    }


def ert_doc():
    return {
        "bench": "s7_ert",
        "ceilings_bytes_per_s": {"L1": 32e9, "L2": 11.6e9, "L3": 8.3e9,
                                 "DRAM": 3.8e9},
        "compute_flops_per_s": 8e9,
        "ratios": {"l1_over_dram": 8.46, "l2_over_dram": 3.08,
                   "l3_over_dram": 2.18, "compute_over_dram_ridge": 2.12},
        "run_seconds": {"discovery": 0.2},
    }


ALL_DOCS = {
    "s5_engine": engine_doc,
    "s6_selfprofile": selfprofile_doc,
    "s3_timeline": timeline_doc,
    "s7_ert": ert_doc,
}


class TestGateSpecs:
    @pytest.mark.parametrize("kind", sorted(ALL_DOCS))
    def test_every_kind_has_checks(self, kind):
        assert gate_checks_for(kind)

    def test_unknown_kind_raises(self):
        with pytest.raises(BenchGateError):
            gate_checks_for("s99_nonsense")


class TestCompare:
    @pytest.mark.parametrize("kind", sorted(ALL_DOCS))
    def test_identical_docs_pass(self, kind):
        doc = ALL_DOCS[kind]()
        results = compare_docs(doc, doc)
        assert results
        assert all(r.ok for r in results), \
            [r.describe() for r in results if not r.ok]

    def test_wildcard_expands_over_sweeps(self):
        doc = engine_doc()
        metrics = {r.metric for r in compare_docs(doc, doc)}
        assert "sweeps.daxpy.speedup" in metrics
        assert "sweeps.dgemm.speedup" in metrics

    def test_kind_mismatch_raises(self):
        with pytest.raises(BenchGateError):
            compare_docs(engine_doc(), timeline_doc())

    def test_missing_bench_field_raises(self):
        with pytest.raises(BenchGateError):
            compare_docs({"sweeps": {}}, engine_doc())

    def test_missing_current_metric_raises(self):
        current = engine_doc()
        del current["sweeps"]["dgemm"]["speedup"]
        with pytest.raises(BenchGateError):
            compare_docs(engine_doc(), current)

    def test_tolerance_scale_widens_the_gate(self):
        current = engine_doc()
        current["sweeps"]["daxpy"]["speedup"] = 12.0  # -40%: fails at 35%
        assert not all(r.ok for r in compare_docs(engine_doc(), current))
        wide = compare_docs(engine_doc(), current, tolerance_scale=2.0)
        assert all(r.ok for r in wide)

    def test_absolute_floor_ignores_baseline_and_tolerance(self):
        # the >= 10x dgemm floor: a generous baseline and a wide
        # tolerance scale must not resurrect the old plateau
        current = engine_doc()
        current["sweeps"]["dgemm"]["speedup"] = 9.5
        results = {r.metric: r for r in
                   compare_docs(engine_doc(), current,
                                tolerance_scale=100.0)}
        assert not results["sweeps.dgemm.speedup"].ok

    def test_nest_coverage_floor_fires_on_walk_fallback_regression(self):
        # a third of the sweep's top-level nodes silently walked in
        # Python instead of running through the C nest executor
        current = engine_doc()
        current["sweeps"]["dgemm"]["nest"]["coverage"] = 0.67
        results = compare_docs(engine_doc(), current)
        bad = [r for r in results if not r.ok]
        assert any(r.metric == "sweeps.dgemm.nest.coverage"
                   and r.limit == 0.95 for r in bad)

    def test_absolute_cap_ignores_baseline(self):
        # the 5% disabled-overhead ceiling: even if the baseline were
        # high, the cap is absolute
        base = selfprofile_doc()
        base["disabled"]["overhead_fraction"] = 0.049
        current = selfprofile_doc()
        current["disabled"]["overhead_fraction"] = 0.051
        results = {r.metric: r for r in compare_docs(base, current)}
        assert not results["disabled.overhead_fraction"].ok
        assert results["disabled.overhead_fraction"].limit == 0.05

    def test_nan_current_always_fails(self):
        current = engine_doc()
        current["sweeps"]["daxpy"]["speedup"] = float("nan")
        results = {r.metric: r for r in compare_docs(engine_doc(), current)}
        assert not results["sweeps.daxpy.speedup"].ok


class TestInjectSlowdown:
    @pytest.mark.parametrize("kind", sorted(ALL_DOCS))
    def test_2x_slowdown_fails_the_gate(self, kind):
        doc = ALL_DOCS[kind]()
        slowed = inject_slowdown(doc, 2.0)
        results = compare_docs(doc, slowed)
        assert any(not r.ok for r in results), \
            f"{kind}: a 2x slowdown must trip the gate"

    def test_injection_does_not_mutate_the_original(self):
        doc = engine_doc()
        inject_slowdown(doc, 2.0)
        assert doc == engine_doc()

    def test_factor_one_changes_ratios_not_at_all(self):
        doc = engine_doc()
        assert inject_slowdown(doc, 1.0) == doc

    def test_bad_factor_rejected(self):
        with pytest.raises(BenchGateError):
            inject_slowdown(engine_doc(), 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(BenchGateError):
            inject_slowdown({"bench": "mystery"}, 2.0)


class TestRunGate:
    def test_compare_mode_with_files(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(engine_doc()))
        cur.write_text(json.dumps(engine_doc()))
        results = run_gate(str(base), current_path=str(cur))
        assert all(r.ok for r in results)

    def test_injected_slowdown_through_run_gate(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(engine_doc()))
        results = run_gate(str(base), current=engine_doc(), slowdown=2.0)
        assert any(not r.ok for r in results)

    def test_unreadable_baseline_raises(self, tmp_path):
        with pytest.raises(BenchGateError):
            run_gate(str(tmp_path / "missing.json"),
                     current=engine_doc())

    def test_garbage_baseline_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(BenchGateError):
            run_gate(str(path), current=engine_doc())
