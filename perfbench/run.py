#!/usr/bin/env python3
"""Benchmark of the roofline pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``analyze-dgemm`` — a cold ``repro.analyze`` of dgemm-tiled at sizes
  64-160 on snb (scale 0.125), serial, no sweep cache;
* ``sweep-f4-pool`` — the paper's F4 daxpy grid (10 points, cold and
  warm) through ``run_plan`` with a 2-worker local pool, no sweep cache;
* ``serve-mixed`` — ``repro serve`` with a private cache, primed with one
  cold ``/analyze``, then driven by 2 closed-loop connections with
  seeded rounds of ``/analyze`` cache reads and one ``/measure`` miss.

Every batch iteration runs in a fresh interpreter (``child.py``) that
times its own set-up and work; the server runs under ``serve_child.py``.
Each run builds the C kernel into its own cache before anything is
timed, works in a private directory under ``.bench_build/`` with a
private sweep cache and flight-recorder directory, and removes that
directory at the end.  Every output is checked: batch outputs against
the digests in ``digests.json``, server responses against the same
calls made directly.  An exception, a non-200 response, a digest
mismatch or a missing C kernel counts as a failed operation.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger (see ``ledger.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
from child import ANALYZE_KERNEL, ANALYZE_SIZES, digest  # noqa: E402

WORKLOADS = ("analyze-dgemm", "sweep-f4-pool", "serve-mixed")

#: end-to-end metrics every workload reports (name -> unit)
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

CHILD_TIMEOUT = 120.0
#: host-probe seconds that reported times are expressed against: each
#: timed unit is scaled by (this / the probes beside it) ** exponent
REFERENCE_PROBE_S = 0.15
#: how far each workload's times follow the probe, from the log-log
#: slopes of its unscaled time on probe time over the calibration runs
#: in NOISE.json: the pure-Python analysis follows it closely, the
#: server about half way; the pool's C-kernel work follows it too
#: erratically (slopes 0.09 to 0.78) for scaling to help, so it is
#: reported as measured
PROBE_EXPONENT = {"analyze-dgemm": 0.8, "sweep-f4-pool": 0.0,
                  "serve-mixed": 0.5}
#: fixed so set iteration order and hashing never differ between runs
PYTHONHASHSEED = "0"

#: serve-mixed: servers set up per untraced run (set-up is their median)
SERVE_SETUPS = 3
#: serve-mixed: cache-read requests per round, beside one miss
ROUND_HITS = 16
#: serve-mixed: miss sizes are 8*k for distinct k in this range, so they
#: divide into whole vectors on every preset (the vector-lane rule)
MISS_K = (256, 1024)
CONNECTIONS = 2


class BenchError(Exception):
    """The run cannot produce a result."""


def per_layer_units() -> dict:
    """Every per-layer metric (name -> unit), in report order."""
    units = {}
    for layer in ledger.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "engine.bound_hit_ratio": "ratio",
        "engine.symbolic_hit_ratio": "ratio",
        "sweep.cache.hit_ratio": "ratio",
        "pool.worker_busy_s": "s",
        "pool.utilization": "ratio",
        "serve.request_s": "s",
        "serve.client_s": "s",
        "serve.jobs_executed": "count",
        "serve.coalesced": "count",
        "coverage_frac": "ratio",
        "trace_overhead": "ratio",
        "ckernel.build_s": "s",
        "host.probe_s": "s",
        "host.probe_spread": "ratio",
        "fail_frac": "ratio",
    })
    return units


# ----------------------------------------------------------------------
# the run's private environment
# ----------------------------------------------------------------------
class Run:
    """A private directory and environment for one benchmark run."""

    def __init__(self, root: Path, name: str) -> None:
        self.root = root
        self.dir = (root / ".bench_build" / "perfbench"
                    / f"{name}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        self.work = self.dir / "work"
        self.trace = self.dir / "trace"
        for path in (self.work, self.trace, self.dir / "tmp"):
            path.mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env.update(
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED=PYTHONHASHSEED,
            TMPDIR=str(self.dir / "tmp"),
            REPRO_CKERNEL_CACHE=str(self.dir / "ckernel"),
            REPRO_SWEEP_CACHE=str(self.dir / "sweepcache"),
            REPRO_FLIGHTREC_DIR=str(self.dir / "flightrec"),
        )
        self._serial = 0

    def path(self, stem: str) -> Path:
        self._serial += 1
        return self.dir / f"{stem}-{self._serial}.json"

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def build_ckernel(run: Run) -> float:
    """Compile the C kernel into the run's cache; returns the seconds."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from repro.engine import ckernel; "
         "sys.exit(0 if ckernel.available() else 1)"],
        cwd=run.work, env=run.env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"C kernel build failed: {proc.stderr.strip()}")
    return time.perf_counter() - started


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop plus a numpy pass."""
    import numpy as np

    started = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += (i * i) % 7
    values = np.random.default_rng(0).random(900_000)
    np.sort(values).sum()
    return time.perf_counter() - started


class HostClock:
    """Host-speed probes taken in this process beside each timed unit.

    The host's speed drifts by up to 1.5x over seconds to minutes, for
    reasons outside the benchmark; a probe right before and right after
    a unit tracks it, and scaling the unit's time by the reference probe
    over the mean of the two (see PROBE_EXPONENT) cancels most of that.
    """

    def __init__(self, exponent: float) -> None:
        self.exponent = exponent
        self.samples = [host_probe()]

    def scale(self) -> float:
        """Probe now; the factor for the unit timed since the last probe."""
        self.samples.append(host_probe())
        ratio = REFERENCE_PROBE_S / statistics.mean(self.samples[-2:])
        return ratio ** self.exponent


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------
def run_child(run: Run, workload: str, traced: bool,
              extra_env=None) -> dict:
    """One fresh-interpreter iteration; the report, with ``error`` set
    when the iteration failed or its output is wrong."""
    out = run.path("child")
    env = dict(run.env, **(extra_env or {}))
    args = [sys.executable, str(HERE / "child.py"), "run", workload,
            "--out", str(out)]
    if traced:
        args += ["--trace", str(run.trace)]
    spawn = time.monotonic()
    proc = subprocess.Popen(args + ["--spawn", repr(spawn)], cwd=run.work,
                            env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        err = None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if err is None:
        return {"error": "iteration timed out"}
    if proc.returncode != 0 or not out.exists():
        return {"error": f"child exited {proc.returncode}: {err[-500:]}"}
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    report.setdefault("error", check_child(workload, report, traced))
    return report


def check_child(workload: str, report: dict, traced: bool):
    """Why an iteration's report is wrong, or None."""
    if not (report.get("ckernel") and report.get("ckernel_after")):
        return "C kernel not loaded"
    if report.get("digest") != expected_digest(workload):
        return f"output digest {report.get('digest')} != recorded"
    if bool(report.get("wrappers")) != traced:
        return f"{report.get('wrappers')} ledger wrappers installed"
    return None


def expected_digest(workload: str) -> str:
    with open(HERE / "digests.json", encoding="utf-8") as handle:
        return json.load(handle)[workload]


def run_batch(run: Run, clock: HostClock, workload: str, seconds: float,
              trace: bool):
    """Iterations until ``seconds`` pass; traced runs alternate an
    untraced and a traced iteration, at least one of each."""
    reports = []
    least = 2 if trace else 1
    deadline = time.monotonic() + seconds
    while True:
        traced = trace and len(reports) % 2 == 1
        report = run_child(run, workload, traced)
        report["traced"] = traced
        report["scale"] = clock.scale()
        reports.append(report)
        if time.monotonic() >= deadline and len(reports) >= least:
            return reports


def print_unscaled(setups, walls) -> None:
    """The medians as measured, before the host-speed scaling."""
    print(f"unscaled medians: setup_s={statistics.median(setups):.4f} s "
          f"wall_s={statistics.median(walls):.4f} s")


def batch_metrics(reports, trace: bool, run: Run) -> dict:
    good = [r for r in reports if not r.get("error")]
    plain = [r for r in good if not r["traced"]]
    if not plain:
        raise BenchError("every iteration failed: "
                         + "; ".join(r["error"] for r in reports[:3]))
    print_unscaled([r["setup_s"] for r in plain],
                   [r["work_s"] for r in plain])
    if not trace:
        return {
            "setup_s": statistics.median(r["setup_s"] * r["scale"]
                                         for r in plain),
            "wall_s": statistics.median(r["work_s"] * r["scale"]
                                        for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    traced = [r for r in good if r["traced"]]
    if not traced:
        raise BenchError("every traced iteration failed")
    overhead = (statistics.median(r["work_s"] * r["scale"] for r in traced)
                / statistics.median(r["work_s"] * r["scale"] for r in plain))
    return ledger_metrics(ledger.read_dir(run.trace), len(traced), overhead)


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` process under ``serve_child.py``."""

    def __init__(self, run: Run, traced: bool, cache_dir: Path) -> None:
        self.out = run.path("server")
        args = [sys.executable, str(HERE / "serve_child.py"),
                "--cache-dir", str(cache_dir), "--out", str(self.out)]
        if traced:
            args += ["--trace", str(run.trace)]
        self.spawn = time.monotonic()
        self.proc = subprocess.Popen(args, cwd=run.work, env=run.env,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        self.stderr = []
        self.port = None
        ready = threading.Event()

        def pump() -> None:
            for line in self.proc.stderr:
                self.stderr.append(line)
                match = re.search(r"listening on http://[^:]+:(\d+)", line)
                if match and self.port is None:
                    self.port = int(match.group(1))
                    ready.set()
            ready.set()

        self._pump = threading.Thread(target=pump, daemon=True)
        self._pump.start()
        ready.wait(CHILD_TIMEOUT)
        if self.port is None:
            self.stop()
            raise BenchError("server did not start: "
                             + "".join(self.stderr)[-500:])

    def stop(self) -> dict:
        """Drain the server (SIGTERM) and return its exit report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._pump.join(5)
        if self.proc.returncode != 0 or not self.out.exists():
            return {"error": f"server exited {self.proc.returncode}: "
                             + "".join(self.stderr)[-500:]}
        with open(self.out, encoding="utf-8") as handle:
            return json.load(handle)

    def metrics(self) -> dict:
        """The serve counters from the server's own ``/metrics``."""
        status, body, _ = request(self.port, "GET", "/metrics")
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        wanted = {
            "repro_serve_request_seconds_sum": "request_s",
            "repro_serve_jobs_executed_total": "jobs_executed",
            "repro_serve_coalesced_total": "coalesced",
        }
        found = dict.fromkeys(wanted.values(), 0.0)
        for line in body.decode("utf-8").splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0] in wanted:
                found[wanted[parts[0]]] = float(parts[1])
        return found


def request(port: int, method: str, path: str, doc=None):
    """``(status, body, seconds)``; status 0 when the request failed."""
    started = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=CHILD_TIMEOUT)
    try:
        body = None if doc is None else json.dumps(doc)
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        status, data = response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        status, data = 0, str(exc).encode("utf-8")
    finally:
        conn.close()
    return status, data, time.perf_counter() - started


ANALYZE_REQUEST = {"kernel": ANALYZE_KERNEL, "sizes": ANALYZE_SIZES}


def start_primed(run: Run, cache_dir: Path):
    """An untraced server primed with one cold ``/analyze`` and its
    set-up seconds (spawn to primed), or raise BenchError."""
    server = Server(run, False, cache_dir)
    try:
        status, body, _ = request(server.port, "POST", "/analyze",
                                  ANALYZE_REQUEST)
        setup = time.monotonic() - server.spawn
        problem = check_response("analyze", None, status, body, {})
        if problem:
            raise BenchError(f"priming failed: {problem}")
    except BaseException:
        server.stop()
        raise
    return server, setup


def make_round(rng: random.Random, used: set) -> list:
    """ROUND_HITS ``/analyze`` reads and one fresh ``/measure`` miss."""
    while True:
        n = 8 * rng.randrange(MISS_K[0], MISS_K[1] + 1)
        if n not in used:
            used.add(n)
            break
    reqs = [("analyze", None)] * ROUND_HITS
    reqs.insert(rng.randrange(ROUND_HITS + 1), ("measure", n))
    return reqs


def send(port: int, req):
    kind, n = req
    doc = ANALYZE_REQUEST if kind == "analyze" else {"kernel": "daxpy",
                                                     "n": n}
    status, body, seconds = request(port, "POST", f"/{kind}", doc)
    return kind, n, status, body, seconds


def drive(server: Server, rng: random.Random, seconds: float, used: set):
    """Closed-loop rounds over CONNECTIONS connections until ``seconds``
    pass; returns ``(round seconds, request records)`` per round."""
    rounds = []
    deadline = time.monotonic() + seconds
    with ThreadPoolExecutor(CONNECTIONS) as pool:
        while not rounds or time.monotonic() < deadline:
            reqs = make_round(rng, used)
            started = time.perf_counter()
            done = list(pool.map(lambda r: send(server.port, r), reqs))
            rounds.append((time.perf_counter() - started, done))
    return rounds


def traffic(server: Server, rng, seconds: float, used: set,
            traced: bool) -> dict:
    """Drive ``server``, then stop it; returns the phase doc."""
    phase = {"traced": traced}
    try:
        before = server.metrics()
        phase["rounds"] = drive(server, rng, seconds, used)
        after = server.metrics()
        phase["server"] = {k: after[k] - before[k] for k in after}
    finally:
        phase["exit"] = server.stop()
    return phase


def check_response(kind: str, n, status: int, body: bytes, direct: dict):
    """Why a response is wrong, or None."""
    if status != 200:
        return f"/{kind} answered {status}: {body[:200]!r}"
    try:
        result = json.loads(body)["result"]
        if kind == "analyze":
            ok = digest(result) == expected_digest("analyze-dgemm")
        else:
            ok = digest(result["measurement"]) == direct.get(str(n))
    except (ValueError, KeyError, TypeError) as exc:
        return f"/{kind} body unreadable: {exc}"
    return None if ok else f"/{kind} n={n} differs from the direct call"


def measure_direct(run: Run, sizes) -> dict:
    """Digests of the ``/measure`` calls made directly, by size."""
    out = run.path("direct")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "measure-direct",
         "--out", str(out), *map(str, sorted(sizes))],
        cwd=run.work, env=run.env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT)
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"direct /measure calls failed: {proc.stderr}")
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    if "error" in report:
        raise BenchError(f"direct /measure calls failed: {report['error']}")
    return report["digests"]


def judge(phase: dict, direct: dict) -> int:
    """Failed requests of a phase (a bad server exit fails them all);
    keeps the rounds without a failure as ``phase["good"]``."""
    exit_report = phase["exit"]
    server_ok = ("error" not in exit_report and exit_report.get("ckernel")
                 and bool(exit_report.get("wrappers")) == phase["traced"])
    failed, phase["good"] = 0, []
    for seconds, records in phase["rounds"]:
        bad = len(records) if not server_ok else sum(
            1 for kind, n, status, body, _ in records
            if check_response(kind, n, status, body, direct))
        failed += bad
        if not bad:
            phase["good"].append((seconds, records))
    return failed


def run_serve(run: Run, clock: HostClock, seed: int, seconds: float,
              trace: bool):
    """Untraced: SERVE_SETUPS servers, each primed from cold and driven
    for an equal share of ``seconds``.  Traced: one primed untraced
    server driven for half the time, then a traced server on the same
    warm cache for the other half."""
    rng = random.Random(seed)
    used = set()
    setups, phases, setup_failures = [], [], 0
    count = 1 if trace else SERVE_SETUPS
    share = seconds / 2 if trace else seconds / count
    for index in range(count):
        cache_dir = run.dir / f"servecache-{index}"
        try:
            server, setup = start_primed(run, cache_dir)
        except BenchError as exc:
            print(f"server set-up failed: {exc}", file=sys.stderr)
            setup_failures += 1
            clock.scale()
            continue
        setups.append((setup, clock.scale()))
        phases.append(traffic(server, rng, share, used, False))
        phases[-1]["scale"] = clock.scale()
    if not phases:
        raise BenchError("no server could be set up")
    if trace:
        phases.append(traffic(Server(run, True, cache_dir), rng, share, used,
                              True))
        phases[-1]["scale"] = clock.scale()
    direct = measure_direct(run, used)
    attempted = len(setups) + setup_failures
    failed = setup_failures
    for phase in phases:
        attempted += sum(len(records) for _, records in phase["rounds"])
        failed += judge(phase, direct)
    plain = [p for p in phases if not p["traced"]]
    good = [r for p in plain for r in p["good"]]
    if not good:
        raise BenchError("every round had a failed request")
    print(serve_summary(good))
    wall = statistics.median(
        s * p["scale"] for p in plain for s, _ in p["good"])
    print_unscaled([s for s, _ in setups], [s for s, _ in good])
    if not trace:
        return attempted, failed, {
            "setup_s": statistics.median(s * k for s, k in setups),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(
                p["exit"]["peak_rss_mb"] for p in plain if p["good"]),
        }
    traced = phases[-1]
    if not traced["good"]:
        raise BenchError("every traced round had a failed request")
    rounds = len(traced["rounds"])
    overhead = statistics.median(
        s * traced["scale"] for s, _ in traced["good"]) / wall
    metrics = ledger_metrics(ledger.read_dir(run.trace), rounds, overhead)
    server_side = traced["server"]
    metrics["serve.request_s"] = server_side["request_s"] / rounds
    metrics["serve.jobs_executed"] = server_side["jobs_executed"] / rounds
    metrics["serve.coalesced"] = server_side["coalesced"] / rounds
    metrics["serve.client_s"] = sum(
        r[4] for _, records in traced["rounds"] for r in records) / rounds
    return attempted, failed, metrics


def percentiles(values) -> dict:
    """The median and p90 by percent, p90 lowered to the highest
    percentile with at least ten samples beyond it."""
    values = sorted(values)
    found = {}
    for pct in (50, min(90, int(100 * (1 - 10 / max(len(values), 1))))):
        if values and pct >= 50:
            found[pct] = values[min(len(values) - 1,
                                    pct * len(values) // 100)]
    return found


def serve_summary(rounds) -> str:
    """The serve-specific latencies, by name and unit, with counts."""
    records = [r for _, done in rounds for r in done]
    busy = sum(seconds for seconds, _ in rounds)
    parts = [f"req_per_s={len(records) / busy:.4f} 1/s"]
    for kind, label in (("analyze", "hit"), ("measure", "miss")):
        lat = [r[4] * 1000 for r in records if r[0] == kind]
        for pct, value in percentiles(lat).items():
            parts.append(f"{label}_p{pct}_ms={value:.4f} ms")
        parts.append(f"{label}_n={len(lat)}")
    return "serve-mixed: " + " ".join(parts)


# ----------------------------------------------------------------------
# per-layer ledger
# ----------------------------------------------------------------------
def ledger_metrics(docs, units: int, overhead: float) -> dict:
    """Per-layer metrics per work unit (one batch iteration or one serve
    round), averaged over the ``units`` traced ones."""
    merged = ledger.merge(docs)
    metrics = {}
    for layer in ledger.LAYERS:
        calls, busy, self_ns = merged["totals"].get(layer, (0, 0, 0))
        metrics[f"{layer}.calls"] = calls / units
        metrics[f"{layer}.busy_s"] = busy / 1e9 / units
        metrics[f"{layer}.self_s"] = self_ns / 1e9 / units
    c = merged["counters"]
    metrics["engine.bound_hit_ratio"] = ratio(c["bound_hits"],
                                              c["bound_lookups"])
    metrics["engine.symbolic_hit_ratio"] = ratio(c["symbolic_hits"],
                                                 c["symbolic_lookups"])
    metrics["sweep.cache.hit_ratio"] = ratio(c["cache_hits"],
                                             c["cache_lookups"])
    metrics["pool.worker_busy_s"] = c["pool_busy_s"] / units
    metrics["pool.utilization"] = ratio(c["pool_busy_s"],
                                        c["pool_capacity_s"])
    # serve-mixed overwrites these from the server's own /metrics
    metrics.update({"serve.request_s": 0.0, "serve.client_s": 0.0,
                    "serve.jobs_executed": 0.0, "serve.coalesced": 0.0})
    metrics["coverage_frac"] = ratio(merged["covered_ns"], merged["root_ns"])
    metrics["trace_overhead"] = overhead
    return metrics


def ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def save_trace(run: Run, workload: str, seed: int) -> Path:
    """Merge every process's spans into one file outside the run dir."""
    path = run.root / ".bench_build" / "perfbench" / \
        f"trace-{workload}-seed{seed}.json"
    processes = [{"pid": d["pid"], "threads": d["threads"],
                  "spans_dropped": d["spans_dropped"]}
                 for d in ledger.read_dir(run.trace)]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"span_fields": ["name", "start_ns", "end_ns",
                                   "parent index in its thread"],
                   "processes": processes}, handle, separators=(",", ":"))
    return path


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def measure(root: Path, workload: str, seed: int, seconds: float,
            trace: bool) -> dict:
    run = Run(root, workload)
    try:
        build_s = build_ckernel(run)
        clock = HostClock(PROBE_EXPONENT[workload])
        if workload == "serve-mixed":
            attempted, failed, metrics = run_serve(run, clock, seed, seconds,
                                                   trace)
        else:
            reports = run_batch(run, clock, workload, seconds, trace)
            for report in reports:
                if report.get("error"):
                    print(f"iteration failed: {report['error']}",
                          file=sys.stderr)
            attempted = len(reports)
            failed = sum(1 for r in reports if r.get("error"))
            metrics = batch_metrics(reports, trace, run)
        fail_frac = failed / attempted
        probes = clock.samples
        probe_s = statistics.median(probes)
        quartiles = statistics.quantiles(probes, n=4)
        print(f"{workload}: attempted={attempted} failed={failed} "
              f"fail_frac={fail_frac} ckernel.build_s={build_s:.4f} s "
              f"host.probe_s={probe_s:.4f} s (min {min(probes):.4f}, "
              f"max {max(probes):.4f}, n={len(probes)}; times are scaled "
              f"by ({REFERENCE_PROBE_S} s / probe) ** {clock.exponent})")
        if trace:
            metrics.update({
                "ckernel.build_s": build_s,
                "host.probe_s": probe_s,
                "host.probe_spread": (quartiles[2] - quartiles[0]) / probe_s,
                "fail_frac": fail_frac,
            })
            print(f"trace written to {save_trace(run, workload, seed)}")
            units = per_layer_units()
        else:
            units = END_TO_END
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }
    finally:
        run.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of the roofline pipeline")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its servers and removes its directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    try:
        result = measure(root, args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
