"""One benchmark iteration in a fresh interpreter.

    python3 child.py run WORKLOAD --spawn T --out FILE [--trace DIR]
    python3 child.py measure-direct --out FILE N [N ...]

``run`` sets up one batch workload, times its work, and writes a JSON
report: set-up time (from ``--spawn``, the parent's monotonic clock
just before it started this process, to ready), work time, peak RSS
with pool workers counted, the output digest, whether the C kernel was
loaded before and after the work, and how many ledger wrappers were
installed.  With ``--trace`` the ledger wraps every layer before the
work and is written to DIR right after it.

``measure-direct`` runs the ``/measure`` calls of the serve workload
directly through ``repro.run_plan`` and reports each payload's digest,
so the runner can compare the server's responses with them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

from ledger import Ledger, installed_count

#: the analyze workload's kernel sizes and machine (the server's
#: ``/analyze`` priming request uses the same call)
ANALYZE_KERNEL = "dgemm-tiled"
ANALYZE_SIZES = [64, 96, 128, 160]
MACHINE_SCALE = 0.125


def digest(doc) -> str:
    """SHA-256 of the canonical JSON encoding of ``doc``."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_analyze():
    import repro

    ref = repro.MachineRef.of("snb", scale=MACHINE_SCALE)

    def work():
        result = repro.analyze(ANALYZE_KERNEL, ANALYZE_SIZES, machine=ref,
                               cache=None, jobs=1)
        return result.to_json_doc()

    return work, digest


def setup_sweep_pool():
    import repro
    from repro.sweep import make_grid, measurement_to_payload

    plan = make_grid("f4", repro.MachineRef.of("snb-ep", scale=MACHINE_SCALE))

    def work():
        return repro.run_plan(plan, jobs=2, cache=None)

    def check(run):
        return digest([digest(measurement_to_payload(m))
                       for m in run.measurements])

    return work, check


SETUPS = {"analyze-dgemm": setup_analyze, "sweep-f4-pool": setup_sweep_pool}


def run(args) -> dict:
    from repro.engine import ckernel

    report = {"ckernel": ckernel.available()}
    if not report["ckernel"]:
        report["error"] = "C kernel unavailable: Python datapath would run"
        return report
    work, check = SETUPS[args.workload]()
    ledger = None
    if args.trace:
        ledger = Ledger(args.trace)
        ledger.install()
    report["setup_s"] = time.monotonic() - args.spawn
    started = time.perf_counter()
    if ledger is not None:
        with ledger.span("bench.work", "root"):
            output = work()
    else:
        output = work()
    report["work_s"] = time.perf_counter() - started
    if ledger is not None:
        ledger.write()
    report["peak_rss_mb"] = peak_rss_mb()
    report["digest"] = check(output)
    report["ckernel_after"] = ckernel.lib() is not None
    report["wrappers"] = installed_count()
    return report


def measure_direct(args) -> dict:
    import repro
    from repro.engine import ckernel
    from repro.sweep import SweepPlan, measurement_to_payload

    if not ckernel.available():
        return {"error": "C kernel unavailable"}
    ref = repro.MachineRef.of("snb-ep", scale=MACHINE_SCALE)
    plan = SweepPlan()
    plan.add_sweep(ref, "daxpy", args.sizes, protocol="cold", reps=2,
                   cores=(0,))
    run = repro.run_plan(plan, jobs=2, cache=None)
    return {"digests": {str(m.n): digest(measurement_to_payload(m))
                        for m in run.measurements}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("workload", choices=sorted(SETUPS))
    p_run.add_argument("--spawn", type=float, required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--trace")
    p_direct = sub.add_parser("measure-direct")
    p_direct.add_argument("--out", required=True)
    p_direct.add_argument("sizes", type=int, nargs="+")
    args = parser.parse_args(argv)
    try:
        report = run(args) if args.command == "run" else measure_direct(args)
    except Exception as exc:  # noqa: BLE001 — reported as a failed operation
        report = {"error": f"{type(exc).__name__}: {exc}"}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
