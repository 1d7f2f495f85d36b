"""Bench S5: two-tier execution engine speedup and plan-cache telemetry.

Not a paper figure — this measures the execution engine itself.  The
fast engine compiles each flat loop's memory side into a cached
:class:`~repro.engine.plan.AccessPlan` and replays it through the
batched datapath; the reference engine dispatches the same emission
stream per line.  Three quantities matter:

* the *wall-clock speedup* of full ``measure_kernel`` sweeps (daxpy —
  bandwidth-bound streaming — and dgemm — the cache-blocked worst case
  for per-line interpretation) with the fast engine vs the reference
  engine,
* the *nest coverage* of a sweep: on the compiled datapath every
  top-level node of these kernels must run through the C nest
  executor (``nest.coverage`` = nest executions over nest executions
  plus walked top-level nodes); the per-loop *plan-cache* counters are
  still recorded, but that tier only serves the walk now,
* *per-rep compile amortization*: how per-rep cost falls once plans
  are compiled (rep 1 pays the compile tier, later reps reuse them).

All three run the cold protocol as a custom one (:class:`_Simulated`),
which rules out the measurement layer's replay of repeated sessions
(``repro.measure.replay``): both engines simulate every session of
every rep, so the speedup and the amortization measure the engines
alone, as the committed baseline did.  What replay itself saves is
reported beside them under ``replay`` (simulated rep cost over
replayed rep cost, same kernel and size); no gate reads it yet.

Run under pytest-benchmark (``pytest benchmarks/bench_s5_engine.py
--benchmark-only``), or directly (``python benchmarks/
bench_s5_engine.py --out BENCH_engine.json``) to regenerate the
committed baseline that future PRs regress against.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.engine import ckernel
from repro.kernels.registry import make_kernel
from repro.machine.presets import tiny_test_machine
from repro.measure import measure_kernel
from repro.measure.protocol import ColdCache

DAXPY_SIZES = (512, 1024, 2048, 4096)
# cache-resident through DRAM-resident on the tiny machine: the regime
# sweeps actually spend their time in (and where per-line
# interpretation hurts most) is the upper end
DGEMM_SIZES = (64, 96, 128, 160)
REPS = 3  # the measure-runner default: what sweeps actually pay
#: fast/reference timing pairs per gated sweep speedup
SWEEP_PAIRS = 5


class _Simulated(ColdCache):
    """The cold protocol under another type: the measurement runner
    replays sessions only for the built-in protocols, so this one
    simulates every session on either engine."""


def _sweep(engine: str, kernel_name: str, sizes) -> "object":
    """One full measurement sweep on a fresh machine; returns machine."""
    machine = tiny_test_machine(engine=engine)
    for n in sizes:
        measure_kernel(machine, make_kernel(kernel_name), n, reps=REPS,
                       protocol=_Simulated())
    return machine


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def _nest_doc(stats) -> dict:
    walked = sum(stats.fallbacks.values())
    runs = stats.nest_runs
    return {
        "nest_runs": runs,
        "walked_nodes": walked,
        "coverage": runs / (runs + walked) if runs + walked else 0.0,
    }


def _assert_fast_path(machine) -> None:
    stats = machine.core(0).plan_stats
    if ckernel.available():
        assert _nest_doc(stats)["coverage"] == 1.0
    else:
        assert stats.hits > 0


def test_daxpy_sweep_fast(benchmark):
    machine = benchmark(_sweep, "fast", "daxpy", DAXPY_SIZES)
    _assert_fast_path(machine)


def test_daxpy_sweep_reference(benchmark):
    machine = benchmark(_sweep, "reference", "daxpy", DAXPY_SIZES)
    assert machine.core(0).plan_stats.lookups == 0


def test_dgemm_sweep_fast(benchmark):
    machine = benchmark(_sweep, "fast", "dgemm-tiled", DGEMM_SIZES)
    _assert_fast_path(machine)


def test_dgemm_sweep_reference(benchmark):
    machine = benchmark(_sweep, "reference", "dgemm-tiled", DGEMM_SIZES)
    assert machine.core(0).plan_stats.lookups == 0


# ----------------------------------------------------------------------
# standalone baseline writer
# ----------------------------------------------------------------------
def _time(fn, repeats: int) -> float:
    """Minimum seconds of ``fn()`` over ``repeats`` calls.

    The minimum, not the mean/median: scheduler and cache interference
    only ever add time, so the fastest sample is the least-contaminated
    estimate of the work itself (same reasoning as ``timeit``).
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return min(samples)


def _sweep_baseline(kernel_name: str, sizes) -> dict:
    """Both engines' sweep times, sampled pair by pair.

    Each pair times one fast sweep and then one reference sweep, and
    each side keeps its minimum over :data:`SWEEP_PAIRS` pairs: a host
    that speeds up or slows down during the run touches both sides
    alike, where timing one block per side let the drift between the
    blocks move the speedup.
    """
    fast, ref = [], []
    for _ in range(SWEEP_PAIRS):
        fast.append(_time(lambda: _sweep("fast", kernel_name, sizes), 1))
        ref.append(_time(lambda: _sweep("reference", kernel_name, sizes), 1))
    fast, ref = min(fast), min(ref)
    machine = _sweep("fast", kernel_name, sizes)
    plan = machine.core(0).plan_stats
    return {
        "kernel": kernel_name,
        "sizes": list(sizes),
        "reps": REPS,
        "pairs": SWEEP_PAIRS,
        "fast_seconds": fast,
        "reference_seconds": ref,
        "speedup": ref / fast,
        "plan_cache": plan.as_dict(),
        "nest": _nest_doc(plan),
    }


def _amortization(kernel_name: str, n: int, max_reps: int,
                  repeats: int) -> dict:
    """Per-rep cost of the fast engine as reps grow.

    Every rep is simulated (:class:`_Simulated`), but each added rep
    reuses already-compiled plans, so the marginal cost of a rep (the
    slope) sits below the first measurement (which pays the compile
    tier); their ratio is the amortization factor.
    """
    per_rep = _per_rep_seconds(kernel_name, n, max_reps, repeats,
                               _Simulated)
    marginal = (per_rep[max_reps] - per_rep[1]) / (max_reps - 1)
    return {
        "kernel": kernel_name,
        "n": n,
        "first_measurement_seconds": per_rep[1],
        "marginal_rep_seconds": marginal,
        "amortization_factor": per_rep[1] / marginal if marginal > 0
        else float("inf"),
    }


def _replay(amortization: dict, max_reps: int, repeats: int) -> dict:
    """What replaying repeated sessions saves per rep.

    The marginal rep of the built-in cold protocol is a replay of the
    first rep's recorded runs; the marginal rep of :class:`_Simulated`
    (the amortization's) simulates both sessions.  The replay factor is
    the second cost over the first.  A replayed rep costs about as much
    as timer noise, hence the many reps.
    """
    replayed = _per_rep_seconds(amortization["kernel"], amortization["n"],
                                max_reps, repeats, ColdCache)
    simulated_rep = amortization["marginal_rep_seconds"]
    replayed_rep = (replayed[max_reps] - replayed[1]) / (max_reps - 1)
    return {
        "kernel": amortization["kernel"],
        "n": amortization["n"],
        "reps": max_reps,
        "simulated_rep_seconds": simulated_rep,
        "replayed_rep_seconds": replayed_rep,
        "replay_factor": simulated_rep / replayed_rep if replayed_rep > 0
        else float("inf"),
    }


def _per_rep_seconds(kernel_name: str, n: int, max_reps: int,
                     repeats: int, protocol) -> dict:
    """Seconds of one fresh-machine measurement at 1 and ``max_reps``."""
    return {
        reps: _time(
            lambda r=reps: measure_kernel(
                tiny_test_machine(), make_kernel(kernel_name), n, reps=r,
                protocol=protocol(),
            ),
            repeats,
        )
        for reps in (1, max_reps)
    }


def collect_baseline(repeats: int = 3) -> dict:
    # warm the process (bytecode caches, numpy init)
    _sweep("fast", "daxpy", (256,))
    doc = {
        "bench": "s5_engine",
        "machine": "tiny",
        "repeats": repeats,
        "sweeps": {
            "daxpy": _sweep_baseline("daxpy", DAXPY_SIZES),
            "dgemm": _sweep_baseline("dgemm-tiled", DGEMM_SIZES),
        },
        "amortization": _amortization("daxpy", 4096, 5, repeats),
    }
    doc["replay"] = _replay(doc["amortization"], 51, repeats)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="regenerate the execution-engine baseline")
    parser.add_argument("--out", default="BENCH_engine.json")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    doc = collect_baseline(repeats=args.repeats)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, sweep in doc["sweeps"].items():
        print(f"{name}: x{sweep['speedup']:.2f} speedup "
              f"(fast {sweep['fast_seconds']:.2f}s vs "
              f"reference {sweep['reference_seconds']:.2f}s), "
              f"nest coverage {sweep['nest']['coverage']:.3f}")
    amort = doc["amortization"]
    print(f"amortization: first measurement {amort['first_measurement_seconds']:.3f}s, "
          f"marginal rep {amort['marginal_rep_seconds']:.3f}s "
          f"(x{amort['amortization_factor']:.1f})")
    replay = doc["replay"]
    print(f"replay: simulated rep {replay['simulated_rep_seconds']:.4f}s, "
          f"replayed rep {replay['replayed_rep_seconds']:.4f}s "
          f"(x{replay['replay_factor']:.1f}); written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
