"""Cross-process metrics merging and worker-labelled expositions.

Pins the :meth:`MetricsRegistry.to_delta_doc` /
:meth:`MetricsRegistry.absorb_delta` transport the distributed
telemetry plane ships worker metrics over: counters sum, gauges are
last-write-wins, histograms bucket-merge (and refuse lossy merges
across mismatched bucket bounds).  Also round-trips awkward worker
label values through the registry's exposition and the delta
transport.
"""

import math

import pytest

from repro.obs.metrics import MetricsRegistry, escape_label_value

from tests.obs.test_prometheus_format import check_exposition


def registry_with(build):
    reg = MetricsRegistry()
    build(reg)
    return reg


class TestCounterMerge:
    def test_counters_sum_across_absorbs(self):
        parent = MetricsRegistry()
        for amount in (2.0, 3.0):
            worker = MetricsRegistry()
            worker.counter("repro_sweep_worker_points_total", "points",
                           labelnames=("worker",)).inc(amount, worker=7)
            parent.absorb_delta(worker.to_delta_doc())
        metric = parent.get("repro_sweep_worker_points_total")
        assert metric.value(worker=7) == 5.0

    def test_distinct_label_sets_stay_distinct(self):
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        counter = worker.counter("repro_sweep_worker_points_total",
                                 "points", labelnames=("worker",))
        counter.inc(1.0, worker=11)
        counter.inc(4.0, worker=22)
        parent.absorb_delta(worker.to_delta_doc())
        metric = parent.get("repro_sweep_worker_points_total")
        assert metric.value(worker=11) == 1.0
        assert metric.value(worker=22) == 4.0


class TestGaugeMerge:
    def test_gauges_are_last_write_wins(self):
        parent = MetricsRegistry()
        for value in (0.25, 0.75):
            worker = MetricsRegistry()
            worker.gauge("repro_sweep_worker_utilization", "util",
                         labelnames=("worker",)).set(value, worker=7)
            parent.absorb_delta(worker.to_delta_doc())
        metric = parent.get("repro_sweep_worker_utilization")
        assert metric.value(worker=7) == 0.75


class TestHistogramMerge:
    BOUNDS = (0.1, 1.0, 10.0)

    def _observing(self, *values):
        reg = MetricsRegistry()
        hist = reg.histogram("repro_point_seconds", "latency",
                             buckets=self.BOUNDS)
        for value in values:
            hist.observe(value)
        return reg

    def test_histograms_bucket_merge(self):
        parent = self._observing(0.05, 0.5)
        parent.absorb_delta(self._observing(5.0, 50.0).to_delta_doc())
        hist = parent.get("repro_point_seconds")
        assert hist.count() == 4
        assert hist.sum() == pytest.approx(55.55)
        # one observation per band: <=0.1, <=1, <=10, +Inf
        assert hist.percentile(0.25) == 0.1
        assert hist.percentile(0.50) == 1.0
        assert hist.percentile(0.75) == 10.0
        # the +Inf bucket has no finite upper bound; the estimate
        # saturates at the largest finite bound
        assert hist.percentile(1.0) == 10.0

    def test_mismatched_bounds_refuse_lossy_merge(self):
        parent = self._observing(0.5)
        other = MetricsRegistry()
        other.histogram("repro_point_seconds", "latency",
                        buckets=(1.0, 2.0)).observe(0.5)
        with pytest.raises(ValueError, match="lossy"):
            parent.absorb_delta(other.to_delta_doc())

    def test_absorb_into_empty_registry_creates_the_family(self):
        parent = MetricsRegistry()
        parent.absorb_delta(self._observing(0.5, 5.0).to_delta_doc())
        hist = parent.get("repro_point_seconds")
        assert hist is not None
        assert hist.count() == 2
        assert hist.bounds == (0.1, 1.0, 10.0, math.inf)

    def test_percentile_validates_quantile_and_handles_empty(self):
        reg = self._observing()
        hist = reg.get("repro_point_seconds")
        assert hist.percentile(0.5) is None
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                hist.percentile(bad)


class TestDeltaDocValidation:
    def test_unknown_kind_is_rejected(self):
        parent = MetricsRegistry()
        with pytest.raises(ValueError, match="kind"):
            parent.absorb_delta({"m": {"kind": "summary", "help": "x",
                                       "labelnames": [],
                                       "samples": [{"key": [],
                                                    "value": 1.0}]}})

    def test_round_trip_is_lossless(self):
        worker = MetricsRegistry()
        worker.counter("c_total", "c", labelnames=("worker",)).inc(3,
                                                                   worker=9)
        worker.gauge("g", "g").set(1.5)
        worker.histogram("h_seconds", "h",
                         buckets=(1.0, 2.0)).observe(1.5)
        parent = MetricsRegistry()
        parent.absorb_delta(worker.to_delta_doc())
        assert parent.to_delta_doc() == worker.to_delta_doc()


class TestWorkerLabelEscaping:
    """Weird worker label values survive the exposition and the delta
    transport."""

    WEIRD = 'worker "7"\\host\nnode'

    def test_registry_exposition_escapes_worker_labels(self):
        reg = MetricsRegistry()
        reg.counter("repro_sweep_worker_points_total", "points",
                    labelnames=("worker",)).inc(2.0, worker=self.WEIRD)
        text = reg.to_prometheus()
        check_exposition(text)
        assert f'worker="{escape_label_value(self.WEIRD)}"' in text
        assert "\n".join(  # no raw newline mid-sample
            line for line in text.splitlines() if "node" in line
        ).count("node") == 1

    def test_escaped_worker_labels_survive_the_delta_transport(self):
        worker = MetricsRegistry()
        worker.counter("repro_sweep_worker_points_total", "points",
                       labelnames=("worker",)).inc(1.0, worker=self.WEIRD)
        parent = MetricsRegistry()
        parent.absorb_delta(worker.to_delta_doc())
        text = parent.to_prometheus()
        check_exposition(text)
        assert f'worker="{escape_label_value(self.WEIRD)}"' in text
