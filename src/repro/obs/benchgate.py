"""Bench-compare regression gate over the committed ``BENCH_*.json``.

The repository commits performance baselines — ``BENCH_engine.json``
(two-tier engine speedup, plan-cache hit rate, rep amortization),
``BENCH_timeline.json`` (timeline-sampler overhead),
``BENCH_selfprofile.json`` (span-profiler overhead), and
``BENCH_ert.json`` (ERT-discovered ceiling-hierarchy shape) — but until now
nothing *compared* fresh numbers against them: CI merely uploaded
artifacts for humans to eyeball.  This module is the comparer, and
``repro benchgate`` the CLI that exits nonzero on regression.

Design constraints:

* **Machine-portable checks.**  Absolute wall seconds differ across
  hosts, so every gated metric is a *ratio* measured within one process
  on one host: speedup (reference/fast), cache hit rates, overhead
  factors (instrumented/uninstrumented).  Raw second counts are carried
  in the docs for humans but never gated.
* **Configurable tolerances.**  Each check declares a direction and a
  tolerance; ``--tolerance`` scales all relative tolerances at the CLI.
* **Self-testable.**  :func:`inject_slowdown` applies a synthetic
  host-slowdown factor to a measured doc (fast-engine seconds grow,
  speedups shrink, overhead factors grow); the acceptance test injects
  2x and asserts the gate goes red.

Fresh numbers come either from ``--current FILE`` (a doc produced by
the matching ``benchmarks/bench_*.py`` writer — the CI path) or, with
no ``--current``, by importing and running that writer in-process
(requires running from the repository root, where the ``benchmarks``
package is importable).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import ReproError


class BenchGateError(ReproError):
    """Unusable baseline/current doc or unknown bench kind."""


#: committed baseline file per bench kind (repo-root relative)
BASELINES = {
    "s5_engine": "BENCH_engine.json",
    "s3_timeline": "BENCH_timeline.json",
    "s6_selfprofile": "BENCH_selfprofile.json",
    "s7_ert": "BENCH_ert.json",
    "s9_disttrace": "BENCH_disttrace.json",
}

#: bench kind -> module under benchmarks/ whose collect_baseline()
#: regenerates a current doc (used when --current is not given)
COLLECTORS = {
    "s5_engine": "benchmarks.bench_s5_engine",
    "s3_timeline": "benchmarks.bench_s3_timeline",
    "s6_selfprofile": "benchmarks.bench_s6_selfprofile",
    "s7_ert": "benchmarks.bench_s7_ert",
    "s9_disttrace": "benchmarks.bench_s9_disttrace",
}


@dataclass(frozen=True)
class GateCheck:
    """One gated metric.

    ``path`` is a dotted path into the doc; a ``*`` component fans the
    check out over every key at that level.  Directions:

    * ``min_rel`` — current must be >= baseline * (1 - tol)
    * ``max_rel`` — current must be <= baseline * (1 + tol)
    * ``min_abs`` — current must be >= baseline - tol
    * ``max_cap`` — current must be <= tol (an absolute ceiling the
      baseline does not move; tolerance scaling does not apply)
    * ``min_floor`` — current must be >= tol (an absolute floor,
      symmetric to ``max_cap``: the committed baseline neither
      relaxes nor tightens it, and tolerance scaling does not apply)
    """

    path: str
    direction: str
    tol: float


@dataclass
class GateResult:
    """Verdict for one expanded check."""

    metric: str
    baseline: float
    current: float
    limit: float
    direction: str
    ok: bool

    def describe(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        op = ">=" if self.direction.startswith("min") else "<="
        return (f"{mark} {self.metric}: current {self.current:.4g} "
                f"{op} limit {self.limit:.4g} "
                f"(baseline {self.baseline:.4g})")


#: the gate specs.  Ratios only — see the module docstring.
GATES: Dict[str, List[GateCheck]] = {
    "s5_engine": [
        # the fast engine's reason to exist: wall-clock speedup over
        # the reference engine on the committed sweep workloads
        GateCheck("sweeps.*.speedup", "min_rel", 0.35),
        # the symbolic-plan acceptance bound: >= 10x on the dgemm
        # sweep, absolute — a faster committed baseline must not let
        # the engine coast back down toward the old plateau
        GateCheck("sweeps.dgemm.speedup", "min_floor", 10.0),
        # the compiled tier must actually carry the sweep: every
        # top-level node of the committed kernels runs through the C
        # nest executor, none falls back to the Python walk (the
        # per-loop plan cache only serves the walk now, so its hit
        # rate no longer measures the fast path)
        GateCheck("sweeps.*.nest.coverage", "min_floor", 0.95),
        GateCheck("amortization.amortization_factor", "min_rel", 0.50),
    ],
    "s3_timeline": [
        # attach tax of the timeline sampler vs a fully untraced run
        GateCheck("overhead_vs_untraced.sampler", "max_rel", 0.50),
        GateCheck("overhead_vs_untraced.nullsink", "max_rel", 0.50),
    ],
    "s6_selfprofile": [
        # the span-profiler acceptance bound: disabled instrumentation
        # must stay under 5% of the dgemm sweep wall time (absolute
        # ceiling — the baseline value does not relax it)
        GateCheck("disabled.overhead_fraction", "max_cap", 0.05),
        # enabled profiling must stay usable (not orders of magnitude)
        GateCheck("enabled.overhead_factor", "max_rel", 0.75),
    ],
    "s7_ert": [
        # ERT ceilings are simulated (deterministic) quantities, so the
        # hierarchy-shape ratios get a tight band: a drift means the
        # measurement path changed, not the host
        GateCheck("ratios.l1_over_dram", "min_rel", 0.05),
        GateCheck("ratios.l2_over_dram", "min_rel", 0.05),
        GateCheck("ratios.l3_over_dram", "min_rel", 0.05),
        GateCheck("ratios.compute_over_dram_ridge", "min_rel", 0.05),
    ],
    "s9_disttrace": [
        # the distributed-telemetry acceptance bound: the always-on
        # parts (flight-recorder breadcrumbs, fault-hook checks) must
        # stay under 2% of the dgemm sweep wall time with collection
        # off (absolute ceiling — the baseline value does not relax it)
        GateCheck("disabled.overhead_fraction", "max_cap", 0.02),
        # full collection (span capture, metrics delta, merge) must
        # stay usable on the same sweep
        GateCheck("enabled.overhead_factor", "max_rel", 0.75),
    ],
}


def gate_checks_for(kind: str) -> List[GateCheck]:
    try:
        return GATES[kind]
    except KeyError:
        raise BenchGateError(
            f"no gate spec for bench kind {kind!r} "
            f"(known: {', '.join(sorted(GATES))})"
        ) from None


# ----------------------------------------------------------------------
# doc traversal
# ----------------------------------------------------------------------
def _walk(doc: dict, parts: List[str], prefix: str = ""):
    """Yield ``(dotted_path, value)`` for every expansion of ``parts``."""
    if not parts:
        yield prefix, doc
        return
    head, rest = parts[0], parts[1:]
    if head == "*":
        if not isinstance(doc, dict):
            raise BenchGateError(f"cannot expand '*' at {prefix!r}: "
                                 f"not an object")
        for key in sorted(doc):
            yield from _walk(doc[key], rest,
                             f"{prefix}.{key}" if prefix else key)
    else:
        if not isinstance(doc, dict) or head not in doc:
            raise BenchGateError(f"missing metric path component "
                                 f"{head!r} under {prefix or '<root>'!r}")
        yield from _walk(doc[head], rest,
                         f"{prefix}.{head}" if prefix else head)


def _lookup(doc: dict, dotted: str) -> float:
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise BenchGateError(f"current doc is missing metric "
                                 f"{dotted!r}")
        node = node[part]
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        raise BenchGateError(f"metric {dotted!r} is not numeric: {node!r}")
    return float(node)


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def compare_docs(baseline: dict, current: dict,
                 tolerance_scale: float = 1.0) -> List[GateResult]:
    """Run every gate check for the docs' bench kind.

    Both docs must carry the same ``bench`` kind.  ``tolerance_scale``
    multiplies every relative tolerance (``min_rel``/``max_rel``);
    absolute tolerances and ceilings are left alone.
    """
    kind = baseline.get("bench")
    if not kind:
        raise BenchGateError("baseline doc has no 'bench' kind field")
    if current.get("bench") != kind:
        raise BenchGateError(
            f"bench kind mismatch: baseline {kind!r} vs current "
            f"{current.get('bench')!r}"
        )
    results: List[GateResult] = []
    for check in gate_checks_for(kind):
        parts = check.path.split(".")
        for dotted, base_value in _walk(baseline, parts):
            if not isinstance(base_value, (int, float)) \
                    or isinstance(base_value, bool):
                raise BenchGateError(
                    f"baseline metric {dotted!r} is not numeric: "
                    f"{base_value!r}"
                )
            base_value = float(base_value)
            cur_value = _lookup(current, dotted)
            if not math.isfinite(cur_value):
                # a non-finite fresh measurement is always a failure
                # for max-bounded checks and a pass for min-bounded
                # ones only when +Inf
                pass
            direction = check.direction
            if direction == "min_rel":
                limit = base_value * (1.0 - check.tol * tolerance_scale)
                ok = cur_value >= limit
            elif direction == "max_rel":
                limit = base_value * (1.0 + check.tol * tolerance_scale)
                ok = cur_value <= limit
            elif direction == "min_abs":
                limit = base_value - check.tol
                ok = cur_value >= limit
            elif direction == "max_cap":
                limit = check.tol
                ok = cur_value <= limit
            elif direction == "min_floor":
                limit = check.tol
                ok = cur_value >= limit
            else:  # pragma: no cover - specs are static
                raise BenchGateError(f"unknown direction {direction!r}")
            if math.isnan(cur_value):
                ok = False
            results.append(GateResult(
                metric=dotted, baseline=base_value, current=cur_value,
                limit=limit, direction=direction, ok=ok,
            ))
    return results


# ----------------------------------------------------------------------
# slowdown injection (gate self-test)
# ----------------------------------------------------------------------
def inject_slowdown(doc: dict, factor: float) -> dict:
    """A copy of ``doc`` as if the *instrumented/fast side* ran
    ``factor``x slower on the same host.

    Models a regression in the code under test, not a uniformly slower
    machine: fast-engine seconds grow and speedups shrink by
    ``factor``; sampler/profiler overhead factors grow by ``factor``;
    reference-side numbers are untouched.  Used by ``repro benchgate
    --inject-slowdown`` and the acceptance test to prove the gate
    actually fires.
    """
    if factor <= 0:
        raise BenchGateError(f"slowdown factor must be > 0, got {factor}")
    out = json.loads(json.dumps(doc))  # deep copy, JSON-clean
    kind = out.get("bench")
    if kind == "s5_engine":
        for sweep in out.get("sweeps", {}).values():
            sweep["fast_seconds"] = sweep["fast_seconds"] * factor
            sweep["speedup"] = sweep["speedup"] / factor
        amort = out.get("amortization")
        if amort:
            amort["marginal_rep_seconds"] *= factor
            amort["first_measurement_seconds"] *= factor
    elif kind == "s3_timeline":
        over = out.get("overhead_vs_untraced", {})
        for key in over:
            over[key] = over[key] * factor
        runs = out.get("run_seconds", {})
        for key in ("nullsink", "sampler"):
            if key in runs:
                runs[key] *= factor
    elif kind == "s6_selfprofile":
        disabled = out.get("disabled", {})
        if "overhead_fraction" in disabled:
            disabled["overhead_fraction"] *= factor
        if "span_call_ns" in disabled:
            disabled["span_call_ns"] *= factor
        enabled = out.get("enabled", {})
        if "overhead_factor" in enabled:
            enabled["overhead_factor"] *= factor
    elif kind == "s9_disttrace":
        disabled = out.get("disabled", {})
        for key in ("overhead_fraction", "flight_note_ns",
                    "fault_check_ns"):
            if key in disabled:
                disabled[key] *= factor
        enabled = out.get("enabled", {})
        if "overhead_factor" in enabled:
            enabled["overhead_factor"] *= factor
        runs = out.get("run_seconds", {})
        if "telemetry" in runs:
            runs["telemetry"] *= factor
    elif kind == "s7_ert":
        # model a regression in the fast levels of the measurement path:
        # near-level ceilings deflate relative to DRAM, the compute roof
        # sags, discovery wall time grows
        ratios = out.get("ratios", {})
        for key in ratios:
            ratios[key] = ratios[key] / factor
        runs = out.get("run_seconds", {})
        if "discovery" in runs:
            runs["discovery"] *= factor
    else:
        raise BenchGateError(f"cannot inject slowdown into bench kind "
                             f"{kind!r}")
    return out


# ----------------------------------------------------------------------
# measuring / loading current docs
# ----------------------------------------------------------------------
def load_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise BenchGateError(f"cannot read bench doc {path!r}: {exc}") \
            from exc
    except ValueError as exc:
        raise BenchGateError(f"bench doc {path!r} is not valid JSON: "
                             f"{exc}") from exc
    if not isinstance(doc, dict):
        raise BenchGateError(f"bench doc {path!r} is not a JSON object")
    return doc


def measure_current(kind: str, repeats: Optional[int] = None) -> dict:
    """Regenerate fresh numbers by running the bench collector
    in-process (requires the ``benchmarks`` package on ``sys.path``,
    i.e. running from the repository root)."""
    module_name = COLLECTORS.get(kind)
    if module_name is None:
        raise BenchGateError(f"no collector for bench kind {kind!r}")
    try:
        import importlib

        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise BenchGateError(
            f"cannot import {module_name!r} ({exc}); run from the "
            f"repository root, or pass --current with a doc produced "
            f"by the bench script"
        ) from exc
    collect: Callable[..., dict] = module.collect_baseline
    if repeats is None:
        return collect()
    return collect(repeats=repeats)


def run_gate(baseline_path: str, current: Optional[dict] = None,
             current_path: Optional[str] = None,
             tolerance_scale: float = 1.0,
             slowdown: Optional[float] = None,
             repeats: Optional[int] = None) -> List[GateResult]:
    """Load/measure, optionally inject a slowdown, and compare.

    Precedence for the current side: an in-memory ``current`` doc, then
    ``current_path``, then a fresh in-process measurement.
    """
    baseline = load_doc(baseline_path)
    if current is None:
        if current_path is not None:
            current = load_doc(current_path)
        else:
            kind = baseline.get("bench")
            if not kind:
                raise BenchGateError("baseline doc has no 'bench' kind")
            current = measure_current(kind, repeats=repeats)
    if slowdown is not None and slowdown != 1.0:
        current = inject_slowdown(current, slowdown)
    return compare_docs(baseline, current, tolerance_scale)
