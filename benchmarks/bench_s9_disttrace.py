"""Bench S9: distributed-telemetry overhead, disabled and enabled.

Not a paper figure — this bounds the cost of the distributed telemetry
plane (:mod:`repro.obs.remote`) the sweep executor grew: trace-context
propagation, always-on flight-recorder breadcrumbs, fault-hook checks,
and (when collecting) worker span capture plus metrics transport.

The acceptance bar is the *disabled* path: a serial sweep with
``telemetry=False`` still pays the always-on parts — two flight
breadcrumbs and one fault-hook environment check per point — and that
cost must stay under 2% of the dgemm sweep benchmark's wall time.

Same two measurement strategies as bench_s6, machine-portable by
construction:

* **disabled overhead** is *estimated*, not subtracted: tight
  microbenchmarks pin the per-call cost of one flight-recorder note and
  one fault-hook check, the per-sweep activation counts follow directly
  from the executor's code shape (2 notes + 1 check per point), and the
  estimate is ``sum(count x per_call_cost) / sweep_seconds``.  An A/B
  subtraction of two ~±2% noisy wall times cannot resolve a ~1e-5
  effect; the product of exactly-counted quantities and tightly pinned
  per-call costs can.
* **enabled overhead** is a direct ratio of the same serial sweep with
  full collection (``telemetry=True``: span capture, metrics delta,
  parent-side merge; workers attach no sink to the machine's trace
  bus) vs collection off — coarse, but it only needs to show
  collection stays usable.

Run directly (``python benchmarks/bench_s9_disttrace.py --out
BENCH_disttrace.json``) to regenerate the committed baseline;
``repro benchgate`` holds ``disabled.overhead_fraction`` under the
absolute 0.02 ceiling and watches ``enabled.overhead_factor`` against
the baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.machine.ref import MachineRef
from repro.obs.metrics import REGISTRY
from repro.obs.remote import FlightRecorder, maybe_fault
from repro.obs.spans import SPANS
from repro.sweep import SweepPlan, run_plan

# the same dgemm sweep bench_s5/s6 gate on — the overhead denominator
# is "the benchmark sweep", not a toy loop
DGEMM_SIZES = (64, 96, 128, 160)
REPS = 3

#: per-point always-on work in simulate_point: begin + end breadcrumbs
NOTES_PER_POINT = 2
#: per-point fault-hook checks (one maybe_fault call, two env lookups)
FAULT_CHECKS_PER_POINT = 1

#: microbenchmark iterations
_CALIBRATION_CALLS = 200_000


def _plan() -> SweepPlan:
    plan = SweepPlan()
    plan.add_sweep(MachineRef.of("tiny"), "dgemm-tiled", DGEMM_SIZES,
                   protocol="cold", reps=REPS)
    return plan


def _sweep(telemetry: bool) -> None:
    SPANS.reset()
    REGISTRY.reset()
    run_plan(_plan(), jobs=1, cache=None, telemetry=telemetry)


def _time(fn, repeats: int) -> float:
    """Minimum seconds of ``fn()`` over ``repeats`` calls (same
    least-contamination reasoning as bench_s5/s6)."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples)


def flight_note_ns(calls: int = _CALIBRATION_CALLS,
                   repeats: int = 5) -> float:
    """Per-call cost of one flight-recorder breadcrumb, in ns."""
    ring = FlightRecorder(capacity=256)
    r = range(calls)

    def with_note():
        for _ in r:
            ring.note("bench", "calibration", point="dgemm-tiled:64")

    def empty():
        for _ in r:
            pass

    site = _time(with_note, repeats)
    base = _time(empty, repeats)
    return max(site - base, 0.0) * 1e9 / calls


def fault_check_ns(calls: int = _CALIBRATION_CALLS,
                   repeats: int = 5) -> float:
    """Per-call cost of one inert fault-hook check, in ns."""
    r = range(calls)

    def with_check():
        for _ in r:
            maybe_fault("dgemm-tiled:64")

    def empty():
        for _ in r:
            pass

    site = _time(with_check, repeats)
    base = _time(empty, repeats)
    return max(site - base, 0.0) * 1e9 / calls


def collect_baseline(repeats: int = 3) -> dict:
    _sweep(telemetry=False)  # warm the process
    note_ns = flight_note_ns()
    check_ns = fault_check_ns()
    disabled_seconds = _time(lambda: _sweep(telemetry=False), repeats)
    telemetry_seconds = _time(lambda: _sweep(telemetry=True), repeats)
    SPANS.reset()
    REGISTRY.reset()

    points = len(DGEMM_SIZES)
    notes = NOTES_PER_POINT * points
    checks = FAULT_CHECKS_PER_POINT * points
    overhead_fraction = ((notes * note_ns + checks * check_ns) * 1e-9
                         / disabled_seconds)
    return {
        "bench": "s9_disttrace",
        "machine": "tiny",
        "repeats": repeats,
        "workload": {
            "kernel": "dgemm-tiled",
            "sizes": list(DGEMM_SIZES),
            "reps": REPS,
        },
        "disabled": {
            "flight_note_ns": note_ns,
            "fault_check_ns": check_ns,
            "notes_per_sweep": notes,
            "fault_checks_per_sweep": checks,
            "overhead_fraction": overhead_fraction,
        },
        "enabled": {
            "overhead_factor": telemetry_seconds / disabled_seconds,
        },
        "run_seconds": {
            "disabled": disabled_seconds,
            "telemetry": telemetry_seconds,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="regenerate the distributed-telemetry overhead "
                    "baseline")
    parser.add_argument("--out", default="BENCH_disttrace.json")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    doc = collect_baseline(repeats=args.repeats)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    d, e = doc["disabled"], doc["enabled"]
    print(f"disabled: {d['notes_per_sweep']} notes x "
          f"{d['flight_note_ns']:.0f} ns + {d['fault_checks_per_sweep']} "
          f"checks x {d['fault_check_ns']:.0f} ns = "
          f"{100 * d['overhead_fraction']:.5f}% of the "
          f"{doc['run_seconds']['disabled']:.2f}s sweep")
    print(f"enabled : x{e['overhead_factor']:.3f} sweep slowdown with "
          f"full collection; written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
