"""Command-line interface: ``python -m repro`` / ``repro-roofline``.

Subcommands:

* ``list``        — show machines, kernels, and experiments
* ``roofline``    — build and print a machine's measured roofline
* ``measure``     — measure one kernel and print its W/Q/T and point
* ``profile``     — measure one kernel with tracing: phase-level cycle
  attribution, bound breakdown, Chrome-trace / metrics export
* ``timeline``    — measure one kernel with windowed sampling: per-window
  bandwidth/hit-rate/IPC series and the roofline trajectory, exported
  as SVG/CSV/Chrome-trace artifacts under ``artifacts/timeline/``
* ``sweep``       — run a measurement grid (a named figure grid or an
  explicit kernel x size list) through the parallel sweep engine with
  content-addressed result caching
* ``ert``         — ERT-style ceiling discovery: sweep the parameterised
  microbenchmark over per-level working sets and flop chains, print the
  measured L1/L2/L3/DRAM bandwidth ceilings and compute roof
* ``analyze``     — the flagship: discover the machine's ceilings, sweep
  one kernel, and place it on every band of the hierarchical roofline
  (ASCII plot, per-level intensity table, SVG/JSON artifacts)
* ``explain``     — run one kernel once and attribute its cycles to
  the bound (FP issue, ports, chains, cache/DRAM bandwidth) that owns
  them
* ``experiment``  — run experiments and write EXPERIMENTS-style output
* ``conformance`` — differential-fuzz the fast interpreter against the
  reference oracle and check every kernel's measured W/Q against
  analytic closed forms; exits nonzero and writes a JSONL divergence
  report under ``artifacts/`` on any mismatch
* ``selfprofile`` — profile the simulator itself: one kernel sweep
  under the host-side span profiler, exported as a flame trace, a
  hotspot table and a metrics snapshot
* ``benchgate``   — re-measure the committed ``BENCH_*.json``
  baselines and exit nonzero on a regression
* ``serve``       — roofline as a service: an asyncio HTTP/JSON server
  (``POST /measure|/analyze|/sweep``, job polling, NDJSON progress
  streams, Prometheus ``/metrics``) with request coalescing through
  the sweep cache and graceful drain on SIGTERM (docs/SERVICE.md)
* ``cache``       — sweep-cache maintenance: ``cache gc --max-bytes
  2G --max-age 30d`` bounds the on-disk result cache (oldest first)

Verbs build their requests through :mod:`repro.request`, as ``repro
serve`` does, and every kernel argument accepts the registry's aliases
(``dgemm`` is ``dgemm-tiled``, ``dgemv`` is ``dgemv-row``).

``measure``, ``roofline``, and ``sweep`` accept ``--json`` for
machine-readable output; ``profile`` and ``sweep`` add ``--trace-out``
(Chrome trace-event JSON, loadable in Perfetto) and ``--metrics-out``
(Prometheus text format).  The global ``--jobs N`` / ``--no-cache`` /
``--cache-dir`` flags (also accepted after ``sweep``/``experiment``)
control how measurement grids execute: ``--jobs`` fans points over a
local process pool (``$REPRO_SWEEP_JOBS`` when the flag is absent; one
job runs in-process, bit-identically — docs/SWEEP.md), and
``--no-cache`` forces re-simulation of every point.

Parallel sweeps collect distributed telemetry by default (see
:mod:`repro.obs.remote`): ``sweep --flame-out`` exports the merged
host+workers flame view, ``sweep --live`` renders an in-terminal
dashboard, and ``--telemetry``/``--no-telemetry`` override the
collection default.  When a point raises or a worker dies, the error
message names the flight-recorder dump under ``artifacts/flightrec/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional

# Module level holds what ``build_parser``, ``main`` and the shared
# helpers need, all of it loaded by ``import repro`` anyway; each
# ``_cmd_*`` imports what only that verb runs, so starting one verb does
# not compile the others' modules.
from .engine import ENGINES
from .errors import ReproError
from .kernels.registry import (
    kernel_choices,
    kernel_names,
    make_kernel,
    resolve_kernel,
)
from .machine.presets import PRESETS
from .machine.ref import MachineRef
from .measure.protocol import PROTOCOLS
from .roofline.ert import DEFAULT_FLOP_COUNTS, LEVELS
from .sweep.grids import GRIDS
from .units import format_bandwidth, format_bytes, format_flops, format_time


def _write(path: str, content, label: Optional[str] = None) -> None:
    """Write a str, or anything else as JSON; a ``label`` says so."""
    if not isinstance(content, str):
        content = json.dumps(content)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    if label:
        print(f"{label} written to {path}", file=sys.stderr)


def _cmd_list(_args) -> int:
    from .experiments.registry import experiment_ids

    print("machines: ", ", ".join(sorted(PRESETS)))
    print("kernels:  ", ", ".join(kernel_names()))
    print("experiments:", ", ".join(experiment_ids()))
    return 0


def _machine(args):
    """The verb's machine, built once, and its threads' cores."""
    ref = MachineRef.named(args.machine, args.scale,
                           getattr(args, "engine", "fast"))
    return ref.build(), ref.cores(getattr(args, "threads", 1))


def _cmd_roofline(args) -> int:
    from .roofline.builder import build_roofline
    from .roofline.export import to_json
    from .roofline.plot_ascii import ascii_plot

    machine, cores = _machine(args)
    model = build_roofline(machine, cores=cores,
                           include_thread_scaling=args.threads > 1)
    if args.json:
        print(to_json(model))
        return 0
    print(ascii_plot(model))
    return 0


def _print_measurement(args, kernel, machine, m) -> None:
    """The W/Q/T/P/I block ``measure`` and ``profile`` print."""
    print(f"kernel    : {kernel.describe()}")
    print(f"machine   : {machine.spec.name}, {args.threads} thread(s), "
          f"{args.protocol} caches")
    print(f"W counted : {m.work_flops:.0f} flops "
          f"(true {m.true_flops}, x{m.work_overcount:.2f})")
    print(f"Q measured: {format_bytes(m.traffic_bytes)} "
          f"(compulsory {format_bytes(m.compulsory_bytes)}, "
          f"x{m.traffic_ratio:.2f})")
    if m.below_noise_floor:
        print(f"            below the {m.noise_floor_bytes:g} B noise "
              f"floor: I is a lower bound")
    print(f"T runtime : {format_time(m.runtime_seconds)}")
    print(f"P         : {format_flops(m.performance)}")
    print(f"I         : {m.intensity:.4f} flops/byte")


def _cmd_measure(args) -> int:
    from .measure.runner import measure_kernel
    from .trace.export import measurement_to_dict

    machine, cores = _machine(args)
    kernel = make_kernel(args.kernel)
    m = measure_kernel(machine, kernel, args.n, protocol=args.protocol,
                       cores=cores, reps=args.reps)
    if args.json:
        print(json.dumps(measurement_to_dict(m), indent=2))
        return 0
    _print_measurement(args, kernel, machine, m)
    if args.plot:
        from .roofline.analysis import analyze_point
        from .roofline.builder import build_roofline
        from .roofline.plot_ascii import ascii_plot
        from .roofline.point import KernelPoint

        model = build_roofline(machine, cores=cores)
        point = KernelPoint.from_measurement(m)
        print()
        print(ascii_plot(model, points=[point]))
        print(analyze_point(model, point).summary())
    return 0


def _cmd_profile(args) -> int:
    from .measure.runner import measure_kernel
    from .obs.metrics import REGISTRY
    from .trace.collector import TraceCollector
    from .trace.export import measurement_to_dict, to_chrome_trace

    machine, cores = _machine(args)
    kernel = make_kernel(args.kernel)
    collector = TraceCollector(machine)
    REGISTRY.reset()
    m = measure_kernel(machine, kernel, args.n, protocol=args.protocol,
                       cores=cores, reps=args.reps, trace=collector)
    if args.trace_out:
        doc = to_chrome_trace(
            collector.events,
            frequency_hz=collector.frequency_hz or machine.spec.base_hz,
            machine_name=machine.spec.name,
        )
        _write(args.trace_out, doc)
    if args.metrics_out:
        REGISTRY.absorb_trace_summary(collector.summary())
        _write(args.metrics_out, REGISTRY.to_prometheus())
    if args.json:
        print(json.dumps(measurement_to_dict(m), indent=2))
    else:
        summary = collector.summary()
        _print_measurement(args, kernel, machine, m)
        print()
        print(collector.phase_table())
        print()
        print(collector.bound_attribution())
        reissue = summary["reissue"]
        if reissue["slots"]:
            print(f"reissue   : {reissue['slots']} slots re-counted "
                  f"{reissue['overcounted_flops']} flops")
        engines = summary["prefetch_engines"]
        if engines:
            parts = ", ".join(
                f"{kind}: {stats['issued']} issued"
                f" ({100.0 * stats['accuracy']:.0f}% useful)"
                for kind, stats in sorted(engines.items())
            )
            print(f"prefetch  : {parts}")
    if args.trace_out:
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    return 0


def _default_timeline_n(name: str) -> int:
    """A problem size big enough to span many 10k-cycle windows."""
    if name.startswith("dgemm"):
        return 96
    if name.startswith("dgemv"):
        return 768
    if name == "fft" or name.startswith("spmv") or name == "stencil3":
        return 8192
    return 65536


def _cmd_timeline(args) -> int:
    from .measure.runner import measure_kernel
    from .roofline.builder import build_roofline
    from .roofline.plot_ascii import ascii_plot
    from .roofline.plot_svg import svg_plot
    from .trace.collector import TraceCollector
    from .trace.export import measurement_to_dict, to_chrome_trace
    from .trace.timeline import TimelineConfig, timeline_from_events
    from .trace.trajectory import RooflineTrajectory

    # validate the window before paying for a measurement
    config = TimelineConfig(args.window)
    kernel_name = resolve_kernel(args.kernel)
    machine, cores = _machine(args)
    kernel = make_kernel(kernel_name)
    n = args.n if args.n is not None else _default_timeline_n(kernel_name)
    # collect the raw event stream (so the Chrome export keeps its phase
    # spans) and window it afterwards
    collector = TraceCollector(machine)
    m = measure_kernel(machine, kernel, n, protocol=args.protocol,
                       cores=cores, reps=args.reps, trace=collector)
    timeline = timeline_from_events(collector.events, config,
                                    machine=machine)
    label = f"{kernel_name} n={n} ({args.protocol})"
    trajectory = RooflineTrajectory.from_timeline(timeline, label=label)

    want_svg, want_csv, want_chrome = args.svg, args.csv, args.chrome
    if not (want_svg or want_csv or want_chrome):
        want_svg = want_csv = want_chrome = True
    os.makedirs(args.out_dir, exist_ok=True)
    stem = os.path.join(
        args.out_dir,
        f"{kernel_name}_n{n}_{machine.spec.name}_w{args.window:g}",
    )
    written = {}
    if want_svg:
        model = build_roofline(machine, cores=cores,
                               include_thread_scaling=args.threads > 1)
        svg = svg_plot(model, timeline=trajectory,
                       title=f"Roofline trajectory: {label} "
                             f"on {machine.spec.name}")
        written["svg"] = stem + ".svg"
        _write(written["svg"], svg)
    if want_csv:
        written["csv"] = stem + ".csv"
        _write(written["csv"], timeline.to_csv())
        written["trajectory_csv"] = stem + ".trajectory.csv"
        _write(written["trajectory_csv"], trajectory.to_csv())
    if want_chrome:
        doc = to_chrome_trace(collector.events,
                              frequency_hz=machine.spec.base_hz,
                              machine_name=machine.spec.name,
                              timeline=timeline)
        written["chrome"] = stem + ".trace.json"
        _write(written["chrome"], doc)

    if args.json:
        print(json.dumps({
            "measurement": measurement_to_dict(m),
            "timeline": timeline.to_json_doc(),
            "trajectory": trajectory.to_json_doc(),
            "artifacts": written,
        }, indent=2))
    else:
        print(f"kernel    : {kernel.describe()}")
        print(f"machine   : {machine.spec.name}, {args.threads} thread(s), "
              f"{args.protocol} caches")
        print(f"window    : {args.window:g} cycles x {len(timeline)} "
              f"window(s) over {timeline.span:.0f} measured cycles")
        print(f"P         : {format_flops(m.performance)}   "
              f"I: {m.intensity:.4f} flops/byte")
        print()
        print(timeline.window_table())
        if trajectory.points:
            model = build_roofline(machine, cores=cores,
                                   include_thread_scaling=args.threads > 1)
            print()
            print(ascii_plot(model, timeline=trajectory))
    for kind, path in sorted(written.items()):
        print(f"{kind} written to {path}", file=sys.stderr)
    return 0


def _cmd_explain(args) -> int:
    from .measure.explain import explain_kernel

    machine, _cores = _machine(args)
    kernel = make_kernel(args.kernel)
    report = explain_kernel(machine, kernel, args.n, protocol=args.protocol)
    print(report.render())
    return 0


def _cmd_sweep(args) -> int:
    from .obs.dashboard import SweepDashboard
    from .obs.metrics import REGISTRY
    from .obs.spans import SPANS
    from .request import build_plan, sweep_document
    from .sweep.cache import SweepCache
    from .sweep.executor import resolve_jobs, run_plan
    from .trace.bus import ListSink, TraceBus
    from .trace.export import to_chrome_trace

    ref = MachineRef.named(args.machine, args.scale, args.engine)
    plan = build_plan(ref, kernel=args.kernel, sizes=args.sizes,
                      grid=args.grid, protocol=args.protocol,
                      reps=args.reps, threads=args.threads)

    cache = None if args.no_cache else SweepCache(args.cache_dir)
    bus = TraceBus()
    sink = ListSink()
    bus.attach(sink)

    def progress(done: int, total: int, point, status: str) -> None:
        if not args.json and not args.live:
            print(f"[{done}/{total}] {status:7s} {point.label()}")

    REGISTRY.reset()
    dashboard = None
    if args.live:
        dashboard = SweepDashboard(total=len(plan),
                                   jobs=resolve_jobs(args.jobs))
    if args.flame_out:
        # the telemetry merge absorbs worker spans only into an enabled
        # profiler
        SPANS.reset()
        SPANS.enable()
    try:
        run = run_plan(plan, jobs=args.jobs, cache=cache, bus=bus,
                       progress=progress, telemetry=args.telemetry,
                       on_point=dashboard.update if dashboard else None)
    finally:
        if args.flame_out:
            SPANS.disable()
        if dashboard is not None:
            dashboard.close()
    if args.trace_out:
        doc = to_chrome_trace(sink.events, frequency_hz=1.0,
                              machine_name=f"sweep {ref.describe()}")
        _write(args.trace_out, doc, "trace")
    if args.flame_out:
        # the merged host+workers flame: parent spans on tid 0, worker
        # spans (absorbed by the telemetry merge) on per-pid tracks
        _write(args.flame_out, SPANS.to_chrome_trace(
            process_name=f"sweep {ref.describe()}"), "flame")
    if args.metrics_out:
        _write(args.metrics_out, REGISTRY.to_prometheus(), "metrics")
    if args.json:
        print(json.dumps(sweep_document(ref, run), indent=2))
        return 0
    print()
    print(f"{'kernel':<14} {'n':>9} {'proto':<5} {'threads':>7} "
          f"{'I [F/B]':>9} {'P [Gflop/s]':>12}")
    for m in run.measurements:
        print(f"{m.kernel:<14} {m.n:>9} {m.protocol:<5} {m.threads:>7} "
              f"{m.intensity:>9.4f} {m.performance / 1e9:>12.3f}")
    print()
    print(f"cache: {run.stats.describe()}")
    pc = run.plan_cache
    if pc.get("hits", 0) or pc.get("misses", 0):
        print(f"plans: {pc['hits']} hit / {pc['misses']} built "
              f"({pc['hit_rate']:.0%} reuse, "
              f"{pc['built_lines']} lines lowered)")
    workers = run.telemetry.get("workers", [])
    if workers:
        parts = ", ".join(
            f"pid {w['pid']}: {w['points']} pt / {w['busy_seconds']:.2f}s"
            + (f" ({w['utilization']:.0%} busy)"
               if "utilization" in w else "")
            for w in workers
        )
        print(f"workers: {parts}")
    return 0


def _cmd_experiment(args) -> int:
    from .experiments.base import ExperimentConfig
    from .experiments.report import (
        render_report,
        run_experiments,
        write_artifacts,
    )
    from .sweep.executor import SweepStats

    stats = SweepStats()
    config = ExperimentConfig(scale=args.scale, reps=args.reps,
                              jobs=args.jobs, cache=not args.no_cache,
                              cache_dir=args.cache_dir, stats=stats)
    ids = args.ids or None
    results = run_experiments(ids, config)
    report = render_report(results, config)
    if args.output:
        _write(args.output, report, "report")
    else:
        sys.stdout.write(report)
    if args.artifacts:
        written = write_artifacts(results, args.artifacts)
        print(f"{len(written)} artifact(s) written to {args.artifacts}",
              file=sys.stderr)
    if stats.points:
        print(f"sweep cache: {stats.describe()}", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


def _cmd_conformance(args) -> int:
    import os
    import random

    from .oracle.analytic import check_kernel, oracle_n
    from .oracle.differential import (
        minimize_program,
        render_program,
        run_cross_engine,
        run_differential,
    )
    from .oracle.fuzz import random_program

    # which differential checks to run per fuzz program: the fast
    # machine vs the textbook reference model ("oracle"), the fast
    # engine vs the per-line reference engine ("engine"), or both
    checks = []
    if args.diff in ("oracle", "both"):
        checks.append(("differential", run_differential))
    if args.diff in ("engine", "both"):
        checks.append(("cross_engine", run_cross_engine))

    report_path = args.report or os.path.join(
        "artifacts", "conformance", "report.jsonl"
    )
    # before the campaign, so a bad path fails fast; a bare file name
    # has no directory to make
    if os.path.dirname(report_path):
        os.makedirs(os.path.dirname(report_path), exist_ok=True)
    records = []
    divergent = 0
    for i in range(args.n):
        # independent stream per program: failure i reproduces alone
        rng = random.Random(args.seed * 1_000_003 + i)
        program = random_program(rng)
        mask = rng.randint(0, 15)
        program_diverged = False
        for kind, run_diff in checks:
            outcome = run_diff(program, prefetch_mask=mask)
            if outcome.ok:
                continue
            program_diverged = True

            def still_diverges(p, _mask=mask, _run=run_diff):
                return not _run(p, prefetch_mask=_mask).ok

            minimized = minimize_program(program, still_diverges)
            min_outcome = run_diff(minimized, prefetch_mask=mask)
            records.append({
                "kind": kind,
                "seed": args.seed,
                "index": i,
                "prefetch_mask": mask,
                "divergences": [d.as_dict() for d in outcome.divergences],
                "minimized_divergences": [
                    d.as_dict() for d in min_outcome.divergences
                ],
                "minimized_program": render_program(minimized),
                "program": render_program(program),
            })
            print(f"DIVERGENCE ({kind}) at index {i} (mask {mask}): "
                  f"{outcome.divergences[0]}")
        divergent += program_diverged
        if (i + 1) % 500 == 0:
            print(f"  {i + 1}/{args.n} programs, {divergent} divergent")

    kernel_problems = 0
    if args.kernels != "none":
        names = (kernel_names() if args.kernels == "all"
                 else [k.strip() for k in args.kernels.split(",")])
        for name in names:
            problems = check_kernel(name)
            if problems:
                kernel_problems += len(problems)
                records.append({
                    "kind": "analytic",
                    "kernel": name,
                    "n": oracle_n(name),
                    "problems": problems,
                })
                for p in problems:
                    print(f"ANALYTIC MISMATCH: {p}")
        print(f"  {len(names)} kernels checked, "
              f"{kernel_problems} analytic mismatch(es)")

    summary = {
        "kind": "summary",
        "programs": args.n,
        "seed": args.seed,
        "diff": args.diff,
        "divergent_programs": divergent,
        "analytic_mismatches": kernel_problems,
    }
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(summary) + "\n")
        for record in records:
            handle.write(json.dumps(record) + "\n")

    failed = divergent or kernel_problems
    print(f"conformance: {args.n} programs, {divergent} divergent; "
          f"kernel oracles: {kernel_problems} mismatch(es); "
          f"report: {report_path}")
    return 1 if failed else 0


def _cmd_selfprofile(args) -> int:
    """Run one kernel sweep under the host-side span profiler."""
    from .obs.metrics import REGISTRY
    from .obs.spans import SPANS
    from .request import build_plan
    from .sweep.cache import SweepCache
    from .sweep.executor import run_plan

    kernel_name = resolve_kernel(args.kernel)
    ref = MachineRef.named(args.machine, args.scale, args.engine)
    sizes = args.sizes or [args.n]
    plan = build_plan(ref, kernel=kernel_name, sizes=sizes,
                      protocol=args.protocol, reps=args.reps,
                      threads=args.threads)
    # caching is off by default: a cache hit would replay stored bytes
    # and the profile would show sweep.cache.probe and nothing else
    cache = SweepCache(args.cache_dir) if args.cache else None

    SPANS.reset()
    REGISTRY.reset()
    SPANS.enable()
    try:
        # serial on purpose — pool workers inherit fresh, disabled
        # profilers, so a parallel run would profile only the submit loop
        run = run_plan(plan, jobs=1, cache=cache)
    finally:
        SPANS.disable()

    os.makedirs(args.out_dir, exist_ok=True)
    stem = os.path.join(
        args.out_dir,
        f"{kernel_name}_n{'-'.join(str(s) for s in sizes)}_{args.machine}",
    )
    flame_path = stem + ".trace.json"
    _write(flame_path, SPANS.to_chrome_trace(
        process_name=f"repro selfprofile {kernel_name}"))
    metrics_path = stem + ".metrics.prom"
    _write(metrics_path, REGISTRY.to_prometheus())

    dropped = SPANS.dropped
    if args.json:
        print(json.dumps({
            "kernel": kernel_name,
            "sizes": sizes,
            "machine": ref.key_doc(),
            "stats": run.stats.to_dict(),
            "plan_cache": run.plan_cache,
            "dropped": dropped,
            "profile": SPANS.to_json_doc(),
            "metrics": REGISTRY.to_json_doc(),
            "artifacts": {"flame": flame_path, "metrics": metrics_path},
        }, indent=2))
    else:
        print(f"kernel    : {kernel_name} "
              f"n={','.join(str(s) for s in sizes)} ({args.protocol})")
        print(f"machine   : {ref.describe()}, {args.threads} thread(s), "
              f"engine={args.engine}")
        print(f"host time : {run.stats.elapsed_seconds:.3f} s over "
              f"{run.stats.points} point(s)")
        print(f"spans     : {len(SPANS.records)} retained, "
              f"{dropped} dropped past the retention cap")
        pc = run.plan_cache
        if pc.get("hits", 0) or pc.get("misses", 0):
            print(f"plans     : {pc['hits']} hit / {pc['misses']} built "
                  f"({pc['hit_rate']:.0%} reuse)")
        print()
        print(SPANS.hotspot_table(args.top))
    if dropped:
        print(f"warning: {dropped} span(s) exceeded the retention cap — "
              f"the flame view is truncated (aggregates stay complete)",
              file=sys.stderr)
    print(f"flame trace written to {flame_path}", file=sys.stderr)
    print(f"metrics written to {metrics_path}", file=sys.stderr)
    SPANS.reset()
    return 0


def _int_list(text: str) -> List[int]:
    """argparse type: '16,32,64' -> [16, 32, 64]; empty entries are
    skipped, a non-integer entry is a usage error."""
    try:
        return [int(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad integer list {text!r}; use comma-separated integers")


def _print_ceiling_table(ceilings) -> None:
    print(f"machine : {ceilings.machine.describe()}")
    print(f"compute : {ceilings.compute_label()}")
    print()
    print(f"{'level':<5} {'bandwidth':>14} {'n':>9} {'flops/elem':>10} "
          f"{'working set':>12}")
    for c in ceilings.ordered():
        print(f"{c.level:<5} {format_bandwidth(c.bytes_per_second):>14} "
              f"{c.n:>9} {c.flops_per_elem:>10} "
              f"{format_bytes(c.working_set_bytes):>12}")


def _cmd_ert(args) -> int:
    from .roofline.ert import discover_ceilings
    from .roofline.hierarchical import HierarchicalRoofline
    from .sweep.cache import SweepCache

    ref = MachineRef.named(args.machine, args.scale, args.engine)
    cache = None if args.no_cache else SweepCache(args.cache_dir)
    ceilings = discover_ceilings(
        ref, flop_counts=args.flops or list(DEFAULT_FLOP_COUNTS),
        sweeps=args.sweeps, reps=args.reps,
        jobs=args.jobs, cache=cache,
    )
    roofline = HierarchicalRoofline.from_ceilings(ceilings)
    if args.json:
        print(json.dumps({
            "machine": ceilings.machine.key_doc(),
            "hierarchical": roofline.to_dict(),
            "grid_points": len(ceilings.measurements),
            "stats": (ceilings.sweep_stats.to_dict()
                      if ceilings.sweep_stats is not None else None),
        }, indent=2))
        return 0
    _print_ceiling_table(ceilings)
    if args.plot:
        from .roofline.plot_ascii import ascii_plot

        print()
        print(ascii_plot(roofline.to_model()))
    if args.svg:
        from .roofline.plot_svg import save_svg, svg_plot

        save_svg(svg_plot(roofline.to_model(),
                          title=f"ERT ceilings: {roofline.name}"),
                 args.svg)
        print(f"\nsvg written to {args.svg}", file=sys.stderr)
    return 0


def _cmd_analyze(args) -> int:
    if not args.sizes:
        print("error: analyze needs --sizes N,N,..", file=sys.stderr)
        return 2
    from .roofline.hierarchical import analyze
    from .sweep.cache import SweepCache

    ref = MachineRef.named(args.machine, args.scale, args.engine)
    cache = None if args.no_cache else SweepCache(args.cache_dir)
    result = analyze(
        args.kernel, args.sizes, machine=ref, protocol=args.protocol,
        reps=args.reps,
        flop_counts=args.flops or list(DEFAULT_FLOP_COUNTS),
        jobs=args.jobs, cache=cache,
    )
    if args.json:
        print(json.dumps({**result.to_json_doc(),
                          "plan_cache": result.plan_cache}, indent=2))
        return 0
    _print_ceiling_table(result.ceilings)
    print()
    print(result.ascii())
    print()
    intensities = result.intensities()
    print(f"{'n':>9} {'P [Gflop/s]':>12} "
          + " ".join(f"{'I@' + level + ' [F/B]':>12}" for level in LEVELS))
    for i, m in enumerate(result.measurements):
        print(f"{m.n:>9} {m.performance / 1e9:>12.3f} "
              + " ".join(f"{intensities[level][i]:>12.4f}"
                         for level in LEVELS))
    if args.svg or args.json_out:
        os.makedirs(args.out_dir, exist_ok=True)
    stem = f"{result.kernel}_{args.machine}"
    if args.svg:
        from .roofline.plot_svg import save_svg

        path = os.path.join(args.out_dir, f"{stem}.svg")
        save_svg(result.svg(), path)
        print(f"\nsvg written to {path}", file=sys.stderr)
    if args.json_out:
        path = os.path.join(args.out_dir, f"{stem}.json")
        _write(path, json.dumps(result.to_json_doc(), indent=2),
               "analysis json")
    return 0


def _cmd_benchgate(args) -> int:
    """Diff fresh bench numbers against committed baselines."""
    from .obs.benchgate import BenchGateError, run_gate

    baselines = args.baseline or [
        path for path in ("BENCH_engine.json", "BENCH_timeline.json",
                          "BENCH_selfprofile.json", "BENCH_ert.json",
                          "BENCH_disttrace.json")
        if os.path.exists(path)
    ]
    if not baselines:
        print("error: no --baseline given and no BENCH_*.json found "
              "in the current directory", file=sys.stderr)
        return 2
    if args.current and len(baselines) != 1:
        print("error: --current compares against exactly one --baseline",
              file=sys.stderr)
        return 2

    failures = 0
    for baseline_path in baselines:
        print(f"== {baseline_path}")
        try:
            results = run_gate(
                baseline_path,
                current_path=args.current,
                tolerance_scale=args.tolerance,
                slowdown=args.inject_slowdown,
                repeats=args.repeats,
            )
        except BenchGateError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for result in results:
            print(f"  {result.describe()}")
        failures += sum(1 for r in results if not r.ok)
    if failures:
        print(f"benchgate: {failures} regression(s)", file=sys.stderr)
        return 1
    print("benchgate: all gates passed")
    return 0


def _cmd_serve(args) -> int:
    """Run the roofline HTTP service until SIGTERM/SIGINT."""
    import asyncio

    from .serve.server import RooflineServer

    server = RooflineServer(
        host=args.host, port=args.port, jobs=args.jobs,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache, threads=args.threads,
    )

    async def _run() -> None:
        await server.start()
        host, port = server.address
        print(f"repro serve listening on http://{host}:{port} "
              f"(jobs={args.jobs or 'auto'})", file=sys.stderr)
        sys.stderr.flush()
        await server.serve_forever()
        print("repro serve drained cleanly", file=sys.stderr)

    asyncio.run(_run())
    return 0


_SIZE_SUFFIXES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}
_AGE_SUFFIXES = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def _parse_scaled(text: str, suffixes: dict) -> Optional[float]:
    """'2g' -> 2 * suffixes['g']; None unless finite and >= 0."""
    scale = suffixes.get(text[-1:])
    digits = text[:-1] if scale else text
    try:
        value = float(digits) * (scale or 1)
    except ValueError:
        return None
    return value if math.isfinite(value) and value >= 0 else None


def _parse_size(text: str) -> int:
    """'500M' / '2g' / '1048576' -> bytes."""
    text = text.strip().lower()
    value = _parse_scaled(text, _SIZE_SUFFIXES)
    if value is None:
        raise argparse.ArgumentTypeError(
            f"bad size {text!r}; use non-negative bytes or a K/M/G "
            f"suffix")
    return int(value)


def _parse_age(text: str) -> float:
    """'7d' / '12h' / '45m' / '3600' -> seconds."""
    text = text.strip().lower()
    value = _parse_scaled(text, _AGE_SUFFIXES)
    if value is None:
        raise argparse.ArgumentTypeError(
            f"bad age {text!r}; use non-negative seconds or an s/m/h/d "
            f"suffix")
    return value


def _cmd_cache(args) -> int:
    """Sweep-cache maintenance (currently: gc)."""
    from .sweep.cache import SweepCache

    cache = SweepCache(args.cache_dir)
    if args.cache_command == "gc":
        if args.max_bytes is None and args.max_age is None:
            print("error: cache gc needs --max-bytes and/or --max-age",
                  file=sys.stderr)
            return 2
        summary = cache.gc(max_bytes=args.max_bytes,
                           max_age_seconds=args.max_age)
        if args.json:
            print(json.dumps({"root": cache.root, **summary}, indent=2))
        else:
            print(f"cache gc: {cache.root}")
            print(f"  scanned  : {summary['scanned']} entr(y/ies)")
            print(f"  removed  : {summary['removed']} "
                  f"({format_bytes(summary['reclaimed_bytes'])} "
                  f"reclaimed)")
            print(f"  kept     : {format_bytes(summary['kept_bytes'])}")
        return 0
    print(f"error: unknown cache command {args.cache_command!r}",
          file=sys.stderr)
    return 2


def _add_sweep_flags(parser: argparse.ArgumentParser,
                     suppress: bool = False) -> None:
    """Jobs/cache flags, shared by the main parser and subparsers.

    Subparsers re-declare them with ``SUPPRESS`` defaults so a bare
    ``repro --jobs 4 sweep ...`` is not clobbered by the subparser's
    own default, while ``repro sweep --jobs 4 ...`` still works.
    """
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument(
        "--jobs", type=int, **(kw or {"default": None}),
        help="fan measurement points over N local worker processes "
             "(default: $REPRO_SWEEP_JOBS, else 1 = in-process); "
             "results are bit-identical for every N")
    parser.add_argument(
        "--no-cache", action="store_true", **(kw or {"default": False}),
        help="bypass the sweep result cache (re-simulate every point)")
    parser.add_argument(
        "--cache-dir", **(kw or {"default": None}),
        help="sweep cache directory (default: artifacts/sweepcache or "
             "$REPRO_SWEEP_CACHE)")


#: ``--engine`` help of the verbs that measure one kernel or sweep
_ENGINE_HELP = ("execution engine: batched two-tier (fast, default) or "
                "per-line dispatch (reference); equivalence-gated")


def _add_request_flags(parser: argparse.ArgumentParser,
                       machine: Optional[str] = "snb-ep", *,
                       presets: bool = False,
                       machine_help: Optional[str] = None,
                       threads: Optional[int] = None,
                       protocol: Optional[str] = None,
                       protocols: bool = False,
                       reps: Optional[int] = None,
                       engine: Optional[str] = None) -> None:
    """Declare the request flags a verb takes, with its defaults.

    ``--scale`` (default 0.125) always comes along; a ``None`` default
    leaves its flag out.  ``presets`` limits ``--machine`` to the
    preset names, ``protocols`` makes ``--protocol`` a comma-separated
    list, and ``engine`` is the help text of ``--engine``.
    """
    if machine is not None:
        parser.add_argument("--machine", default=machine, help=machine_help,
                            choices=sorted(PRESETS) if presets else None)
    parser.add_argument("--scale", type=float, default=0.125)
    if threads is not None:
        parser.add_argument("--threads", type=int, default=threads)
    if protocols:
        parser.add_argument("--protocol", default=protocol,
                            help="cache protocol(s), comma-separated "
                                 "(cold, warm)")
    elif protocol is not None:
        parser.add_argument("--protocol", choices=PROTOCOLS,
                            default=protocol)
    if reps is not None:
        parser.add_argument("--reps", type=int, default=reps)
    if engine is not None:
        parser.add_argument("--engine", choices=ENGINES, default="fast",
                            help=engine)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-roofline",
        description="Measured roofline models on a simulated machine "
                    "(ISPASS 2014 reproduction)",
    )
    _add_sweep_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list machines, kernels, experiments")

    p_roof = sub.add_parser("roofline", help="print a measured roofline")
    _add_request_flags(p_roof, threads=1)
    p_roof.add_argument("--json", action="store_true",
                        help="emit the model as JSON instead of a plot")

    p_meas = sub.add_parser("measure", help="measure one kernel")
    p_meas.add_argument("kernel", choices=kernel_choices())
    p_meas.add_argument("n", type=int)
    _add_request_flags(p_meas, threads=1, protocol="cold", reps=2,
                       engine=_ENGINE_HELP)
    p_meas.add_argument("--plot", action="store_true")
    p_meas.add_argument("--json", action="store_true",
                        help="emit the measurement as JSON")

    p_prof = sub.add_parser(
        "profile",
        help="measure one kernel with tracing and phase attribution",
    )
    p_prof.add_argument("kernel", choices=kernel_choices())
    p_prof.add_argument("n", type=int, nargs="?", default=4096)
    _add_request_flags(p_prof, threads=1, protocol="cold", reps=1,
                       engine=_ENGINE_HELP)
    p_prof.add_argument("--trace-out",
                        help="write Chrome trace-event JSON here "
                             "(open in Perfetto / chrome://tracing)")
    p_prof.add_argument("--metrics-out",
                        help="write Prometheus-format metrics here")
    p_prof.add_argument("--json", action="store_true",
                        help="emit the measurement (incl. trace summary) "
                             "as JSON")

    p_tl = sub.add_parser(
        "timeline",
        help="measure one kernel with windowed sampling and export the "
             "roofline trajectory",
    )
    p_tl.add_argument("--kernel", default="daxpy",
                      choices=kernel_choices(),
                      help="kernel to profile (dgemm/dgemv resolve to the "
                           "paper's tiled/row variants)")
    p_tl.add_argument("--n", type=int, default=None,
                      help="problem size (default: per-kernel size that "
                           "spans many windows)")
    _add_request_flags(p_tl, threads=1, protocol="cold", reps=1,
                       engine=_ENGINE_HELP)
    p_tl.add_argument("--window", type=float, default=10_000.0,
                      help="window width in cycles (default 10000)")
    p_tl.add_argument("--out-dir", default=os.path.join(
                          "artifacts", "timeline"),
                      help="artifact directory "
                           "(default artifacts/timeline)")
    p_tl.add_argument("--svg", action="store_true",
                      help="write the roofline-trajectory SVG")
    p_tl.add_argument("--csv", action="store_true",
                      help="write per-window and trajectory CSVs")
    p_tl.add_argument("--chrome", action="store_true",
                      help="write Chrome trace-event JSON with timeline "
                           "counter tracks")
    p_tl.add_argument("--json", action="store_true",
                      help="emit measurement + timeline + trajectory "
                           "as JSON")

    p_expl = sub.add_parser("explain", help="attribute a kernel's cycles")
    p_expl.add_argument("kernel", choices=kernel_choices())
    p_expl.add_argument("n", type=int)
    _add_request_flags(p_expl, protocol="warm")

    p_sweep = sub.add_parser(
        "sweep",
        help="run a measurement grid through the parallel sweep engine",
    )
    p_sweep.add_argument("kernel", nargs="?", choices=kernel_choices(),
                         help="kernel to sweep (alternative to --grid)")
    p_sweep.add_argument("--grid", choices=sorted(GRIDS),
                         help="named figure grid (f4=daxpy, f5=dgemv, "
                              "f6=dgemm, f7=fft)")
    p_sweep.add_argument("--sizes", type=_int_list,
                         help="comma-separated problem sizes "
                              "(with KERNEL form)")
    _add_request_flags(p_sweep, presets=True, threads=1, protocol="cold",
                       protocols=True, reps=2, engine=_ENGINE_HELP)
    p_sweep.add_argument("--json", action="store_true",
                         help="emit stats, keys, and measurement payloads "
                              "as JSON")
    p_sweep.add_argument("--trace-out",
                         help="write Chrome trace-event JSON of the sweep")
    p_sweep.add_argument("--flame-out",
                         help="write the merged host+workers span flame "
                              "(Chrome trace-event JSON) here")
    p_sweep.add_argument("--metrics-out",
                         help="write Prometheus-format sweep metrics here")
    p_sweep.add_argument("--live", action="store_true",
                         help="render a live in-terminal dashboard "
                              "(progress, hit rate, latency percentiles, "
                              "queue depth, worker occupancy)")
    telemetry = p_sweep.add_mutually_exclusive_group()
    telemetry.add_argument("--telemetry", dest="telemetry",
                           action="store_true", default=None,
                           help="force distributed-telemetry collection "
                                "(default: on for parallel runs only)")
    telemetry.add_argument("--no-telemetry", dest="telemetry",
                           action="store_false",
                           help="disable distributed-telemetry collection "
                                "even for parallel runs")
    _add_sweep_flags(p_sweep, suppress=True)

    p_ert = sub.add_parser(
        "ert",
        help="discover a machine's bandwidth ceilings and compute roof "
             "with the ERT microbenchmark grid",
    )
    _add_request_flags(p_ert, "snb", presets=True, reps=2,
                       engine="execution engine for the grid")
    p_ert.add_argument("--flops", type=_int_list, default=",".join(
                           str(c) for c in DEFAULT_FLOP_COUNTS),
                       help="comma-separated flops-per-element grid "
                            "(default %(default)s)")
    p_ert.add_argument("--sweeps", type=int, default=2,
                       help="passes over the working set per run "
                            "(default 2; >1 keeps warm sets resident)")
    p_ert.add_argument("--plot", action="store_true",
                       help="print the discovered hierarchy as an "
                            "ASCII roofline")
    p_ert.add_argument("--svg", metavar="PATH",
                       help="write the discovered hierarchy as an SVG")
    p_ert.add_argument("--json", action="store_true",
                       help="emit ceilings + sweep stats as JSON")
    _add_sweep_flags(p_ert, suppress=True)

    p_an = sub.add_parser(
        "analyze",
        help="hierarchical roofline: discover ceilings, sweep one "
             "kernel, and place it on every level's band",
    )
    p_an.add_argument("kernel", choices=kernel_choices(),
                      help="kernel to analyse (dgemm/dgemv resolve to "
                           "the paper's tiled/row variants)")
    p_an.add_argument("--sizes", type=_int_list, required=True,
                      help="comma-separated problem sizes")
    _add_request_flags(p_an, "snb", presets=True, protocol="cold", reps=2,
                       engine="execution engine for both sweeps")
    p_an.add_argument("--flops", type=_int_list, default=",".join(
                          str(c) for c in DEFAULT_FLOP_COUNTS),
                      help="flops-per-element grid for ceiling discovery")
    p_an.add_argument("--svg", action="store_true",
                      help="write the hierarchical plot under --out-dir")
    p_an.add_argument("--json-out", action="store_true",
                      help="write the analysis JSON doc under --out-dir")
    p_an.add_argument("--out-dir", default=os.path.join(
                          "artifacts", "analyze"),
                      help="artifact directory (default artifacts/analyze)")
    p_an.add_argument("--json", action="store_true",
                      help="emit the full analysis as JSON on stdout")
    _add_sweep_flags(p_an, suppress=True)

    p_conf = sub.add_parser(
        "conformance",
        help="fuzz the fast interpreter against the reference oracle "
             "and check kernel W/Q against closed forms",
    )
    p_conf.add_argument("--n", type=int, default=200,
                        help="number of random programs (default 200)")
    p_conf.add_argument("--seed", type=int, default=0,
                        help="base seed for the program stream")
    p_conf.add_argument("--kernels", default="all",
                        help="comma-separated kernels for the analytic "
                             "W/Q oracle, 'all', or 'none'")
    p_conf.add_argument("--diff", choices=("oracle", "engine", "both"),
                        default="both",
                        help="which differential checks to fuzz: machine "
                             "vs reference model (oracle), fast vs "
                             "reference engine (engine), or both")
    p_conf.add_argument("--report",
                        help="JSONL divergence report path (default "
                             "artifacts/conformance/report.jsonl)")

    p_self = sub.add_parser(
        "selfprofile",
        help="profile the simulator itself: run a kernel sweep under "
             "the host-side span profiler and export a flame trace, "
             "hotspot table, and metrics snapshot",
    )
    p_self.add_argument("kernel", choices=kernel_choices(),
                        help="kernel to run (dgemm/dgemv resolve to the "
                             "paper's tiled/row variants)")
    p_self.add_argument("--n", type=int, default=512,
                        help="problem size (default 512)")
    p_self.add_argument("--sizes", type=_int_list,
                        help="comma-separated sizes (overrides --n; "
                             "profiles a multi-point sweep)")
    _add_request_flags(p_self, "tiny", presets=True,
                       machine_help="machine preset (default tiny, so the "
                                    "profile turns around quickly)",
                       threads=1, protocol="cold", reps=1,
                       engine="execution engine to profile (the reference "
                              "engine additionally exercises the per-batch "
                              "mem.* demand spans)")
    p_self.add_argument("--top", type=int, default=10,
                        help="hotspot-table rows (default 10)")
    p_self.add_argument("--cache", action="store_true",
                        help="use the sweep result cache (off by default "
                             "so the engine actually runs under the "
                             "profiler)")
    p_self.add_argument("--cache-dir", default=None,
                        help="sweep cache directory (with --cache)")
    p_self.add_argument("--out-dir",
                        default=os.path.join("artifacts", "selfprofile"),
                        help="artifact directory "
                             "(default artifacts/selfprofile)")
    p_self.add_argument("--json", action="store_true",
                        help="emit profile + metrics + stats as JSON")

    p_gate = sub.add_parser(
        "benchgate",
        help="compare bench numbers against committed BENCH_*.json "
             "baselines; exits nonzero on regression",
    )
    p_gate.add_argument("--baseline", action="append",
                        help="baseline doc(s) to gate (default: every "
                             "committed BENCH_*.json in the cwd)")
    p_gate.add_argument("--current",
                        help="pre-measured current doc (as written by the "
                             "matching benchmarks/bench_*.py); default is "
                             "to re-measure in-process")
    p_gate.add_argument("--tolerance", type=float, default=1.0,
                        help="scale factor on all relative tolerances "
                             "(default 1.0)")
    p_gate.add_argument("--inject-slowdown", type=float, default=None,
                        help="synthetically slow the current doc by this "
                             "factor (gate self-test; 2.0 must fail)")
    p_gate.add_argument("--repeats", type=int, default=None,
                        help="repeats for in-process re-measurement")

    p_serve = sub.add_parser(
        "serve",
        help="run the roofline HTTP/JSON service (POST /measure, "
             "/analyze, /sweep; GET /jobs/<id>, /metrics, /healthz); "
             "drains gracefully on SIGTERM",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8787,
                         help="bind port (default 8787; 0 = ephemeral)")
    p_serve.add_argument("--threads", type=int, default=4,
                         help="job executor threads (default 4)")
    _add_sweep_flags(p_serve, suppress=True)

    p_cache = sub.add_parser(
        "cache",
        help="sweep result cache maintenance",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_gc = cache_sub.add_parser(
        "gc",
        help="prune the cache by age and/or total size "
             "(oldest entries evicted first)",
    )
    p_gc.add_argument("--max-bytes", type=_parse_size, default=None,
                      metavar="SIZE",
                      help="size budget for the cache (bytes, or with a "
                           "K/M/G suffix); oldest entries beyond it are "
                           "removed")
    p_gc.add_argument("--max-age", type=_parse_age, default=None,
                      metavar="AGE",
                      help="drop entries older than this (seconds, or "
                           "with an s/m/h/d suffix, e.g. 7d)")
    p_gc.add_argument("--json", action="store_true",
                      help="emit the gc summary as JSON")
    p_gc.add_argument("--cache-dir", default=None,
                      help="cache directory (default: "
                           "artifacts/sweepcache or $REPRO_SWEEP_CACHE)")

    p_exp = sub.add_parser("experiment", help="run paper experiments")
    p_exp.add_argument("ids", nargs="*", help="experiment ids (default all)")
    _add_request_flags(p_exp, None, reps=2)
    p_exp.add_argument("--output", help="write markdown report here")
    p_exp.add_argument("--artifacts", help="directory for SVG/CSV artifacts")
    _add_sweep_flags(p_exp, suppress=True)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "roofline": _cmd_roofline,
        "measure": _cmd_measure,
        "profile": _cmd_profile,
        "timeline": _cmd_timeline,
        "explain": _cmd_explain,
        "sweep": _cmd_sweep,
        "ert": _cmd_ert,
        "analyze": _cmd_analyze,
        "experiment": _cmd_experiment,
        "conformance": _cmd_conformance,
        "selfprofile": _cmd_selfprofile,
        "benchgate": _cmd_benchgate,
        "serve": _cmd_serve,
        "cache": _cmd_cache,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
