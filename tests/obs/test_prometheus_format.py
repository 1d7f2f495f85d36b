"""Prometheus text-exposition conformance.

The metrics registry is the only Prometheus writer in the repository;
one checker is applied to its expositions, host-plane families and
the machine-plane families absorbed from a trace summary alike.
"""

import math
import re

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    escape_help,
    escape_label_value,
    format_labels,
    format_value,
)

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$"
)


def trace_exposition(summary: dict) -> str:
    """The exposition of a trace summary, absorbed into a fresh
    registry."""
    reg = MetricsRegistry()
    reg.absorb_trace_summary(summary)
    return reg.to_prometheus()


def check_exposition(text: str) -> None:
    """Assert the structural rules of the text exposition format."""
    seen_help, seen_type = set(), set()
    for line in text.splitlines():
        assert line == line.rstrip(), f"trailing whitespace: {line!r}"
        if line.startswith("# HELP "):
            name = line.split()[2]
            assert name not in seen_help, f"duplicate HELP for {name}"
            seen_help.add(name)
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            assert name not in seen_type, f"duplicate TYPE for {name}"
            assert kind in ("counter", "gauge", "histogram", "untyped")
            assert name in seen_help, f"TYPE before HELP for {name}"
            seen_type.add(name)
        elif line:
            assert _SAMPLE_RE.match(line), f"malformed sample: {line!r}"
            value = line.rsplit(" ", 1)[1]
            assert value not in ("nan", "inf", "-inf"), \
                f"python float spelling leaked: {line!r}"
    if text:
        assert text.endswith("\n"), "non-empty exposition must end in \\n"


class TestEscaping:
    def test_label_value_escapes(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_help_escapes_backslash_and_newline(self):
        assert escape_help("a\\b\nc") == "a\\\\b\\nc"

    def test_format_labels_round_trip(self):
        rendered = format_labels({"kernel": 'say "hi"\n'})
        assert rendered == '{kernel="say \\"hi\\"\\n"}'

    def test_format_value_nonfinite(self):
        assert format_value(float("nan")) == "NaN"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"


class TestValuePrecision:
    # {:g} keeps six significant digits: 123456789 used to render as
    # 1.23457e+08

    @pytest.mark.parametrize("value", [123456789, 2 ** 53, 0.1234567891])
    def test_values_parse_back_exactly(self, value):
        assert float(format_value(value)) == value
        assert float(format_value(float(value))) == value

    def test_integral_values_render_as_integers(self):
        assert format_value(123456789) == "123456789"
        assert format_value(123456789.0) == "123456789"
        assert format_value(float(2 ** 53)) == "9007199254740992"

    def test_other_floats_use_the_shortest_round_trip(self):
        assert format_value(0.1234567891) == "0.1234567891"
        assert format_value(1136740.3076923075) == "1136740.3076923075"

    @pytest.mark.parametrize("value", [0, 0.0, 1, 0.5, 0.75, 90.0, 98304,
                                       1e-3, 2.5e-7, 1e20, -3.0])
    def test_exact_g_spellings_are_unchanged(self, value):
        assert format_value(value) == f"{value:g}"

    def test_exposition_sample_is_exact(self):
        reg = MetricsRegistry()
        reg.counter("repro_big_total", "big").inc(123456789)
        assert "repro_big_total 123456789\n" in reg.to_prometheus()


class TestRegistryExposition:
    def test_full_registry_conforms(self):
        reg = MetricsRegistry()
        reg.counter("repro_lookups_total", "lookups",
                    labelnames=("outcome",)).inc(3, outcome='we"ird')
        reg.gauge("repro_depth", "with \\ and \n in help").set(2)
        h = reg.histogram("repro_lat_seconds", "latency",
                          buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        text = reg.to_prometheus()
        check_exposition(text)
        assert 'outcome="we\\"ird"' in text

    def test_histogram_buckets_cumulative_ascending_end_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat_seconds", "latency",
                          buckets=(1.0, 0.1, 10.0))  # unsorted on purpose
        for v in (0.05, 0.5, 0.5, 100.0):
            h.observe(v)
        text = reg.to_prometheus()
        buckets = re.findall(
            r'repro_lat_seconds_bucket\{le="([^"]+)"\} (\d+)', text)
        assert [b[0] for b in buckets] == ["0.1", "1", "10", "+Inf"]
        counts = [int(b[1]) for b in buckets]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert counts[-1] == 4
        assert "repro_lat_seconds_sum" in text
        assert text.count("repro_lat_seconds_count 4") == 1

    def test_one_help_and_type_per_family(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", "x", labelnames=("k",))
        c.inc(1, k="a")
        c.inc(1, k="b")
        text = reg.to_prometheus()
        assert text.count("# HELP repro_x_total") == 1
        assert text.count("# TYPE repro_x_total") == 1

    def test_nonfinite_gauge_uses_prometheus_spelling(self):
        reg = MetricsRegistry()
        reg.gauge("repro_ratio", "ratio").set(math.inf)
        text = reg.to_prometheus()
        assert "repro_ratio +Inf" in text
        check_exposition(text)

    def test_empty_registry_is_empty_exposition(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestTraceExportExposition:
    """The machine-plane families of ``absorb_trace_summary``, next to
    the sweep and plan-cache families in one registry."""

    def _summary(self):
        return {
            "phase_count": 2,
            "total_cycles": 1234.0,
            "bound_cycles": {'odd"bound': 10.0, "dram_bw": 90.0},
            "cache": {"l1_hits": 100, "l2_hits": 10},
            "dram": {"read_lines": 64, "write_lines": 32},
            "prefetch_engines": {"stride": {"issued": 5, "useful": 4}},
            "reissue": {"slots": 1, "overcounted_flops": 8},
            "bandwidth_utilization": {"dram": 0.5, "l3": None},
            "sweep": {"hits": 1, "misses": 2, "corrupt": 0,
                      "hit_rate": 1 / 3, "elapsed_seconds": 0.2},
            "plan_cache": {"hits": 6, "misses": 2, "hit_rate": 0.75,
                           "built_segments": 2, "built_lines": 40,
                           "flushes": 0},
        }

    def _exposition(self):
        summary = self._summary()
        reg = MetricsRegistry()
        reg.absorb_trace_summary(summary)
        reg.absorb_sweep_stats(summary["sweep"])
        reg.absorb_plan_cache(summary["plan_cache"])
        return reg.to_prometheus()

    def test_summary_exposition_conforms(self):
        check_exposition(self._exposition())

    def test_label_values_escaped(self):
        text = self._exposition()
        assert 'bound="odd\\"bound"' in text

    def test_plan_cache_section_present(self):
        text = self._exposition()
        assert 'repro_plan_cache_lookups_total{outcome="hit"} 6' in text
        assert "repro_plan_cache_hit_rate 0.75" in text

    def test_machine_plane_families_keep_their_kinds(self):
        text = trace_exposition(self._summary())
        for name, kind in (("repro_phase_count", "gauge"),
                           ("repro_cycles_total", "counter"),
                           ("repro_bound_cycles_total", "counter"),
                           ("repro_cache_events_total", "counter"),
                           ("repro_dram_lines_total", "counter"),
                           ("repro_prefetch_total", "counter"),
                           ("repro_reissue_slots_total", "counter"),
                           ("repro_reissue_overcounted_flops_total",
                            "counter"),
                           ("repro_bandwidth_utilization", "gauge")):
            assert f"# TYPE {name} {kind}\n" in text
        assert ('repro_prefetch_total{engine="stride",kind="useful"} 4'
                in text)
        # a level without a utilization estimate is left out, not NaN
        assert 'repro_bandwidth_utilization{level="dram"} 0.5' in text
        assert 'level="l3"' not in text
        # the trace summary carries no sweep or plan-cache families
        assert "repro_sweep_" not in text
        assert "repro_plan_cache_" not in text

    def test_empty_summary_is_valid_zero_exposition(self):
        # an empty trace summary still renders the always-present
        # families with zero values — valid text, no bare newline
        text = trace_exposition({})
        check_exposition(text)
        assert text != "\n"
        assert "repro_phase_count 0" in text

    def test_nonfinite_value_spelling(self):
        text = trace_exposition({"total_cycles": float("nan"),
                                 "phase_count": 1})
        assert "repro_cycles_total NaN" in text
        check_exposition(text)
