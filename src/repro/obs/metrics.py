"""Unified metrics registry: counters, gauges, histograms, one export.

Telemetry used to be scattered — :class:`~repro.engine.plan.
PlanCacheStats` lived on each core, sweep-cache hit counts on
:class:`~repro.sweep.executor.SweepStats`, the machine-plane counters
in a :class:`~repro.trace.collector.TraceCollector` summary, and each
CLI glued its own export together.  The :class:`MetricsRegistry`
absorbs them behind one Prometheus/JSON export path: it is the only
code in the repository that writes Prometheus text, and each metric
family is declared in one place.

Format conformance (pinned by ``tests/obs/test_prometheus_format.py``):

* label values escape backslash, double-quote and newline; HELP text
  escapes backslash and newline (the Prometheus text-exposition rules);
* every metric family is preceded by exactly one ``# HELP`` and one
  ``# TYPE`` line;
* histograms emit cumulative ``_bucket`` samples in ascending ``le``
  order ending at ``+Inf``, plus ``_sum`` and ``_count``, and are valid
  (all zeros, no NaN) with zero observations;
* non-finite values render as Prometheus' ``+Inf``/``-Inf``/``NaN``
  spellings, never as Python's ``inf``/``nan``; finite values render
  exactly (they parse back to the value recorded).

The registry is deliberately small and dependency-free — it is not a
Prometheus client library, just enough structure that the sweep
executor, the engine plan cache, the trace collector and the CLIs
speak one metrics language.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..engine import ckernel
from ..engine.plan import NEST_FALLBACK_REASONS

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "escape_help",
    "escape_label_value",
    "format_labels",
    "format_value",
]

#: default latency buckets (seconds): micro-benchmark floor through
#: multi-minute sweep points
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
                   30.0, 60.0, 300.0)


# ----------------------------------------------------------------------
# Prometheus text-format helpers
# ----------------------------------------------------------------------
def escape_label_value(value: object) -> str:
    """Escape a label value per the text exposition format."""
    return (str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def escape_help(text: str) -> str:
    """Escape a HELP string (backslash and newline only; quotes are
    legal in HELP text)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def format_labels(labels: Optional[Dict[str, object]]) -> str:
    """``{k="v",...}`` with escaped values; empty string for no labels."""
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{escape_label_value(value)}"'
        for key, value in labels.items()
    )
    return "{" + body + "}"


def format_value(value: float) -> str:
    """Render a sample value so that it parses back exactly.

    The short ``{:g}`` form is kept wherever it is exact; otherwise an
    integral value renders as an integer and any other float as its
    shortest round-tripping ``repr``.  Non-finite floats use the
    Prometheus spellings (``+Inf`` / ``-Inf`` / ``NaN``).
    """
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
    text = f"{value:g}"
    if float(text) == value:
        return text
    if value == int(value):
        return str(int(value))
    return repr(float(value))


def _bucket_le(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else f"{bound:g}"


# ----------------------------------------------------------------------
# metric kinds
# ----------------------------------------------------------------------
class _Metric:
    """Base: a named family of samples keyed by label values."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._samples: Dict[Tuple[str, ...], float] = {}

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _label_dict(self, key: Tuple[str, ...]) -> Dict[str, str]:
        return dict(zip(self.labelnames, key))

    # shared by counter/gauge; histogram overrides
    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        if not self.labelnames and not self._samples:
            # an unlabelled metric always exposes its (zero) sample so
            # absence-of-traffic is visible rather than missing
            return [({}, 0.0)]
        return [
            (self._label_dict(key), value)
            for key, value in sorted(self._samples.items())
        ]

    def to_prometheus(self) -> List[str]:
        lines = [f"# HELP {self.name} {escape_help(self.help)}",
                 f"# TYPE {self.name} {self.kind}"]
        for labels, value in self.samples():
            lines.append(
                f"{self.name}{format_labels(labels)} {format_value(value)}"
            )
        return lines

    def to_json_doc(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "samples": [
                {"labels": labels, "value": value}
                for labels, value in self.samples()
            ],
        }


class Counter(_Metric):
    """Monotonically increasing total."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up "
                             f"(got {amount})")
        key = self._key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._samples.get(self._key(labels), 0.0)


class Gauge(_Metric):
    """A value that goes up and down (queue depth, hit rate)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._samples[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        return self._samples.get(self._key(labels), 0.0)


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: Iterable[float] = DEFAULT_BUCKETS,
                 labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"{name}: need at least one bucket bound")
        if bounds != [b for b in bounds if not math.isinf(b)]:
            bounds = [b for b in bounds if not math.isinf(b)]
        #: upper bounds, ascending, with the implicit +Inf appended
        self.bounds: Tuple[float, ...] = tuple(bounds) + (math.inf,)
        #: label key -> [per-bucket non-cumulative counts, sum, count]
        self._series: Dict[Tuple[str, ...], list] = {}

    def _series_for(self, key: Tuple[str, ...]) -> list:
        series = self._series.get(key)
        if series is None:
            series = [[0] * len(self.bounds), 0.0, 0]
            self._series[key] = series
        return series

    def observe(self, value: float, **labels) -> None:
        series = self._series_for(self._key(labels))
        counts, _total, _n = series
        # first bound >= value (linear scan; bucket lists are short)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                counts[i] += 1
                break
        series[1] += value
        series[2] += 1

    def count(self, **labels) -> int:
        series = self._series.get(self._key(labels))
        return series[2] if series else 0

    def percentile(self, q: float, **labels) -> Optional[float]:
        """Bucket-resolution quantile estimate (``0 < q <= 1``).

        Returns the upper bound of the first bucket whose cumulative
        count reaches ``q`` of the observations — the classic
        Prometheus-style estimate, biased up by at most one bucket
        width.  The open ``+Inf`` bucket reports the largest finite
        bound.  ``None`` with no observations.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"percentile wants 0 < q <= 1, got {q}")
        series = self._series.get(self._key(labels))
        if series is None or not series[2]:
            return None
        counts, _total, n = series
        threshold = q * n
        cumulative = 0
        for bound, count in zip(self.bounds, counts):
            cumulative += count
            if cumulative >= threshold:
                if math.isinf(bound):
                    break
                return bound
        finite = [b for b in self.bounds if not math.isinf(b)]
        return finite[-1] if finite else None

    def sum(self, **labels) -> float:
        series = self._series.get(self._key(labels))
        return series[1] if series else 0.0

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        # JSON view: one (labels, count) pair per series
        keys = self._series or ({(): None} if not self.labelnames else {})
        return [
            (self._label_dict(key), float(self._series[key][2])
             if key in self._series else 0.0)
            for key in sorted(keys)
        ]

    def to_prometheus(self) -> List[str]:
        lines = [f"# HELP {self.name} {escape_help(self.help)}",
                 f"# TYPE {self.name} {self.kind}"]
        keys = sorted(self._series) if self._series else (
            [()] if not self.labelnames else []
        )
        for key in keys:
            counts, total, n = self._series.get(
                key, [[0] * len(self.bounds), 0.0, 0]
            )
            labels = self._label_dict(key)
            cumulative = 0
            for bound, count in zip(self.bounds, counts):
                cumulative += count
                bucket_labels = dict(labels)
                bucket_labels["le"] = _bucket_le(bound)
                lines.append(
                    f"{self.name}_bucket{format_labels(bucket_labels)} "
                    f"{cumulative}"
                )
            lines.append(f"{self.name}_sum{format_labels(labels)} "
                         f"{format_value(total)}")
            lines.append(f"{self.name}_count{format_labels(labels)} {n}")
        return lines

    def to_json_doc(self) -> dict:
        keys = sorted(self._series) if self._series else (
            [()] if not self.labelnames else []
        )
        series_docs = []
        for key in keys:
            counts, total, n = self._series.get(
                key, [[0] * len(self.bounds), 0.0, 0]
            )
            series_docs.append({
                "labels": self._label_dict(key),
                "count": n,
                "sum": total,
                "mean": (total / n) if n else None,
                "buckets": [
                    {"le": _bucket_le(bound), "count": count}
                    for bound, count in zip(self.bounds, counts)
                ],
            })
        return {"kind": self.kind, "help": self.help, "series": series_docs}


class MetricsRegistry:
    """Get-or-create registry of metric families with one export path."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _register(self, cls, name: str, help_text: str, labelnames,
                  **kwargs) -> _Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        metric = cls(name, help_text, labelnames=labelnames, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str,
                labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str,
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help_text, labelnames)

    def histogram(self, name: str, help_text: str,
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  labelnames: Sequence[str] = ()) -> Histogram:
        return self._register(Histogram, name, help_text, labelnames,
                              buckets=buckets)

    def reset(self) -> None:
        self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    # ------------------------------------------------------------------
    # absorbing the scattered telemetry
    # ------------------------------------------------------------------
    def absorb_plan_cache(self, stats_doc: dict) -> None:
        """Fold a :class:`PlanCacheStats` ``as_dict()`` into the
        registry (counters for the totals, a gauge for the hit rate)."""
        lookups = self.counter(
            "repro_plan_cache_lookups_total",
            "Compile-tier plan-cache lookups by outcome",
            labelnames=("outcome",),
        )
        lookups.inc(stats_doc.get("hits", 0), outcome="hit")
        lookups.inc(stats_doc.get("misses", 0), outcome="miss")
        built = self.counter(
            "repro_plan_cache_built_total",
            "Plan-cache compile work by unit (segments, lines)",
            labelnames=("unit",),
        )
        built.inc(stats_doc.get("built_segments", 0), unit="segments")
        built.inc(stats_doc.get("built_lines", 0), unit="lines")
        self.counter(
            "repro_plan_cache_flushes_total",
            "Whole-cache flushes forced by the line-count bound",
        ).inc(stats_doc.get("flushes", 0))
        self.gauge(
            "repro_plan_cache_hit_rate",
            "Fraction of plan lookups served from the compile-tier cache",
        ).set(stats_doc.get("hit_rate", 0.0))
        self.counter(
            "repro_nest_runs_total",
            "Loop-nest descriptors executed by the C nest executor",
        ).inc(stats_doc.get("nest_runs", 0))
        self.counter(
            "repro_nest_skipped_lines_total",
            "Demand lines the C kernel fast-forwarded over in steady "
            "streams instead of simulating",
        ).inc(stats_doc.get("skipped_lines", 0))
        fallbacks = self.counter(
            "repro_nest_fallbacks_total",
            "Top-level program nodes walked in Python, by reason",
            labelnames=("reason",),
        )
        for reason in NEST_FALLBACK_REASONS:
            fallbacks.inc(stats_doc.get(f"fallback_{reason}", 0),
                          reason=reason)

    def absorb_ckernel_status(self, state: str) -> None:
        """Record the C kernel's load state (``ckernel.status()``): 1 for
        ``state``, 0 for the other two, so an export shows a run that
        fell back to the per-line walk."""
        gauge = self.gauge(
            "repro_ckernel_status",
            "C kernel load state, 1 for the current one: loaded, disabled "
            "by REPRO_CKERNEL=0, or failed; unless loaded, the fast engine "
            "walks per line",
            labelnames=("state",),
        )
        for each in (ckernel.LOADED, ckernel.DISABLED, ckernel.FAILED):
            gauge.set(1 if each == state else 0, state=each)

    def absorb_sweep_stats(self, stats_doc: dict) -> None:
        """Fold a :class:`SweepStats` ``to_dict()`` into the registry."""
        points = self.counter(
            "repro_sweep_points_total",
            "Sweep-plan points by outcome (hit=cache replay, "
            "miss=simulated, corrupt=bad entry re-simulated)",
            labelnames=("outcome",),
        )
        points.inc(stats_doc.get("hits", 0), outcome="hit")
        points.inc(stats_doc.get("misses", 0), outcome="miss")
        points.inc(stats_doc.get("corrupt", 0), outcome="corrupt")
        self.gauge(
            "repro_sweep_cache_hit_rate",
            "Fraction of sweep points served from the result cache",
        ).set(stats_doc.get("hit_rate", 0.0))
        self.gauge(
            "repro_sweep_elapsed_seconds",
            "Wall time the sweep executor spent on the plan",
        ).set(stats_doc.get("elapsed_seconds", 0.0))

    def absorb_trace_summary(self, summary: dict) -> None:
        """Fold a :class:`~repro.trace.collector.TraceCollector`
        ``summary()`` into the registry: the machine-plane families.

        The unlabelled totals always appear (zero when the summary
        lacks them); a labelled family, and the MLP gauge, appear only
        when the summary has samples for them.
        """
        dram = summary.get("dram", {})
        reissue = summary.get("reissue", {})
        mlp = summary.get("avg_outstanding_misses")
        families = (
            (self.gauge, "repro_phase_count",
             "Measured phases in the trace", (),
             [({}, summary.get("phase_count", 0))]),
            (self.counter, "repro_cycles_total",
             "Cycles across measured phases", (),
             [({}, summary.get("total_cycles", 0.0))]),
            (self.counter, "repro_bound_cycles_total",
             "Throughput-bound cycles attributed to each binding "
             "constraint", ("bound",),
             [({"bound": bound}, cycles) for bound, cycles
              in summary.get("bound_cycles", {}).items()]),
            (self.counter, "repro_cache_events_total",
             "Functional cache/TLB event counts", ("event",),
             [({"event": event}, count) for event, count
              in summary.get("cache", {}).items()]),
            (self.counter, "repro_dram_lines_total",
             "IMC-visible 64B line transfers", ("dir",),
             [({"dir": "read"}, dram.get("read_lines", 0)),
              ({"dir": "write"}, dram.get("write_lines", 0))]),
            (self.counter, "repro_prefetch_total",
             "Per-engine prefetch counters", ("engine", "kind"),
             [({"engine": engine, "kind": kind}, stats.get(kind, 0))
              for engine, stats
              in summary.get("prefetch_engines", {}).items()
              for kind in ("issued", "useful")]),
            (self.counter, "repro_reissue_slots_total",
             "FP re-dispatch slots (the W-overcount mechanism)", (),
             [({}, reissue.get("slots", 0))]),
            (self.counter, "repro_reissue_overcounted_flops_total",
             "Counted flops attributable purely to FP reissue", (),
             [({}, reissue.get("overcounted_flops", 0))]),
            (self.gauge, "repro_bandwidth_utilization",
             "Cycle-weighted achieved/roof bandwidth per memory level",
             ("level",),
             [({"level": level}, value) for level, value
              in (summary.get("bandwidth_utilization") or {}).items()
              if value is not None]),
            (self.gauge, "repro_avg_outstanding_misses",
             "Average outstanding demand misses (MLP actually used)", (),
             [] if mlp is None else [({}, mlp)]),
        )
        for register, name, help_text, labelnames, samples in families:
            if not samples:
                continue
            metric = register(name, help_text, labelnames)
            record = metric.set if isinstance(metric, Gauge) else metric.inc
            for labels, value in samples:
                record(value, **labels)

    # ------------------------------------------------------------------
    # cross-process delta transport (distributed telemetry plane)
    # ------------------------------------------------------------------
    def to_delta_doc(self) -> dict:
        """Plain-data snapshot of every family, suitable for pickling
        across a process boundary and replaying with
        :meth:`absorb_delta`.

        Sweep workers start from an empty registry, so their full
        snapshot *is* the delta their point produced.
        """
        families: Dict[str, dict] = {}
        for name, metric in sorted(self._metrics.items()):
            doc: dict = {
                "kind": metric.kind,
                "help": metric.help,
                "labelnames": list(metric.labelnames),
            }
            if isinstance(metric, Histogram):
                doc["bounds"] = [b for b in metric.bounds
                                 if not math.isinf(b)]
                doc["series"] = [
                    {"key": list(key), "counts": list(series[0]),
                     "sum": series[1], "count": series[2]}
                    for key, series in sorted(metric._series.items())
                ]
            else:
                doc["samples"] = [
                    {"key": list(key), "value": value}
                    for key, value in sorted(metric._samples.items())
                ]
            families[name] = doc
        return families

    def absorb_delta(self, doc: dict) -> None:
        """Merge a :meth:`to_delta_doc` snapshot from another process.

        Merge semantics by kind: counters **sum**, gauges take the
        incoming value (**last write wins** — workers report their own
        state, there is nothing meaningful to add), histograms merge
        **bucket-wise** (bounds must match exactly; mismatched bucket
        layouts cannot be combined without losing information, so that
        is an error rather than a silent approximation).  Families and
        series are created on demand.
        """
        for name in sorted(doc):
            family = doc[name]
            kind = family.get("kind")
            labelnames = tuple(family.get("labelnames", ()))
            help_text = family.get("help", "")
            if kind == "histogram":
                bounds = family.get("bounds") or list(DEFAULT_BUCKETS)
                metric = self.histogram(name, help_text, buckets=bounds,
                                        labelnames=labelnames)
                want = tuple(float(b) for b in bounds) + (math.inf,)
                if metric.bounds != want:
                    raise ValueError(
                        f"{name}: histogram bucket bounds differ "
                        f"(registry {metric.bounds}, delta {want}); "
                        f"refusing a lossy merge"
                    )
                for row in family.get("series", ()):
                    key = tuple(row["key"])
                    if len(key) != len(metric.labelnames):
                        raise ValueError(
                            f"{name}: series key {key} does not match "
                            f"labels {metric.labelnames}"
                        )
                    series = metric._series_for(key)
                    for i, count in enumerate(row["counts"]):
                        series[0][i] += count
                    series[1] += row["sum"]
                    series[2] += row["count"]
                continue
            if kind == "counter":
                metric = self.counter(name, help_text, labelnames)
            elif kind == "gauge":
                metric = self.gauge(name, help_text, labelnames)
            else:
                raise ValueError(
                    f"{name}: cannot absorb metric kind {kind!r}"
                )
            for row in family.get("samples", ()):
                key = tuple(row["key"])
                if len(key) != len(metric.labelnames):
                    raise ValueError(
                        f"{name}: sample key {key} does not match "
                        f"labels {metric.labelnames}"
                    )
                if kind == "counter":
                    metric._samples[key] = (
                        metric._samples.get(key, 0.0) + row["value"]
                    )
                else:
                    metric._samples[key] = float(row["value"])

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """Full text exposition of every registered family."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].to_prometheus())
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json_doc(self) -> dict:
        return {
            name: metric.to_json_doc()
            for name, metric in sorted(self._metrics.items())
        }


#: the process-wide registry (sweep executor and CLIs record here)
REGISTRY = MetricsRegistry()
