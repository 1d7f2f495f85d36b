"""Sweep executor: fan measurement points out, memoise results.

The executor takes a :class:`~repro.sweep.plan.SweepPlan` and produces
one :class:`~repro.measure.runner.Measurement` per point, in plan
order.  A point is either

* **a cache hit** — its content-addressed key is present on disk and
  checksum-verified; the stored payload is replayed; or
* **a miss** — :func:`simulate_point` rebuilds a fresh machine from the
  point's :class:`MachineRef` recipe and simulates there: in this
  process when ``jobs`` is 1 or one point misses, otherwise on a
  :class:`~repro.sweep.backends.localpool.LocalPoolBackend` that
  ``run_plan`` builds for the run and shuts down when it ends.
  Machines are never shipped across processes — only the recipe and
  the resulting payload are.

Every path funnels through the same serialised payload
(:mod:`repro.sweep.serialize`), so cached, serial and pooled runs are
bit-identical by construction — the determinism suite in
``tests/sweep/`` asserts it point by point and
``tests/sweep/test_backends.py`` checksums serial/pool parity.

Execution emits ``sweep``-kind events on a :class:`repro.trace.TraceBus`
(timestamps in seconds on the host clock) so per-point progress and
cache hit/miss counts flow through the same observability layer as
simulation traces: export with ``to_chrome_trace(..., frequency_hz=1.0)``
or fold :meth:`SweepStats.to_dict` into a Prometheus exposition.

The executor is also the anchor of the *distributed* telemetry plane
(:mod:`repro.obs.remote`): each dispatched point carries a
:class:`~repro.obs.remote.TraceContext`, workers send back a compact
``telemetry`` payload section (span tree, metrics delta) that is
merged into the parent profiler/registry after the run, and every
process keeps an always-on flight-recorder ring that dumps to
``artifacts/flightrec/`` when a point raises or a worker dies.  The
telemetry section is popped from the payload before it reaches the
result cache, so measurement checksums are identical with telemetry on,
off, serial, parallel, or replayed.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..engine.plan import PlanCacheStats
from ..errors import ConfigurationError, SweepError, SweepPointError
from ..measure.runner import Measurement, counting_into, measure_kernel
from ..obs import remote
from ..obs.metrics import REGISTRY, MetricsRegistry
from ..obs.spans import SPANS
from ..trace.bus import TraceBus
from ..trace.events import MARK, SWEEP, TraceEvent
from .cache import CORRUPT, HIT, SweepCache, point_key
from .plan import SweepPlan, SweepPoint
from .serialize import measurement_to_payload, payload_to_measurement

#: environment default for ``jobs`` when the caller passes ``None``
JOBS_ENV = "REPRO_SWEEP_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Explicit value, else $REPRO_SWEEP_JOBS, else 1.

    An explicit ``jobs`` (a CLI flag, say) always wins; the environment
    is only consulted when the caller passes ``None``.
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError as exc:
            raise SweepError(f"bad {JOBS_ENV}={env!r}: {exc}") from exc
    if jobs < 1:
        raise SweepError(f"jobs must be >= 1, got {jobs}")
    return jobs


def simulate_point(point: SweepPoint,
                   ctx: Optional[remote.TraceContext] = None) -> dict:
    """Measure one point on a fresh machine; returns the payload.

    Module-level so the process pool can import it by name; the
    arguments and the return value are plain picklable data.

    Besides the measurement fields, the payload carries the machine's
    compile-tier telemetry under ``"plan_cache"`` (summed over the
    point's cores).  Because every point gets a *fresh* machine in both
    the serial and parallel paths, the numbers are deterministic and
    participate in the payload checksum like everything else.

    With a collecting :class:`~repro.obs.remote.TraceContext` the
    payload additionally carries a ``"telemetry"`` section (span tree,
    worker metrics delta).  The machine's trace bus stays detached
    either way.  The caller pops the section before the payload reaches
    the result cache, so it never enters the checksum.  The flight
    recorder notes breadcrumbs regardless of telemetry state, and any
    exception dumps the ring with the failing point's repr before
    re-raising as :class:`~repro.errors.SweepPointError`.
    """
    label = f"{point.kernel}:{point.n}"
    remote.FLIGHT.note("point", "begin", point=label,
                       run=ctx.run_id if ctx else None,
                       index=ctx.point_index if ctx else None)
    try:
        remote.maybe_fault(label)
        collect = ctx is not None and ctx.collect
        capture = remote.SpanSectionCapture() if collect else None
        busy_start = time.perf_counter_ns()
        if capture is not None:
            capture.__enter__()
        try:
            machine = point.machine.build()
            # with telemetry on, the measurement's rep counts travel in
            # the point's metrics delta; otherwise they stay in this
            # process's registry
            counts = MetricsRegistry() if collect else REGISTRY
            with SPANS("sweep.point", kernel=point.kernel, n=point.n), \
                    counting_into(counts):
                measurement = measure_kernel(
                    machine, point.build_kernel(), point.n,
                    protocol=point.protocol, cores=point.cores,
                    reps=point.reps, width_bits=point.width_bits,
                )
        finally:
            if capture is not None:
                capture.__exit__(None, None, None)
        busy_ns = time.perf_counter_ns() - busy_start
        payload = measurement_to_payload(measurement)
        payload["plan_cache"] = _harvest_plan_cache(machine, point.cores)
        if collect:
            payload["telemetry"] = remote.build_point_telemetry(
                ctx, capture.section, busy_ns, metrics=counts)
        remote.FLIGHT.note("point", "end", point=label, busy_ns=busy_ns)
        return payload
    except Exception as exc:
        dump = remote.FLIGHT.dump(
            "point-exception", point=repr(point),
            error=f"{type(exc).__name__}: {exc}",
        )
        raise SweepPointError(
            f"sweep point {label} failed: {type(exc).__name__}: {exc} "
            f"[point: {point!r}] [flight-recorder dump: {dump}]",
            invalid=str(exc) if isinstance(exc, ConfigurationError)
            else None,
        ) from exc


def _simulate_inline(items):
    """The serial path: simulate ``(point, ctx)`` items one at a time
    in this process, in item order, yielding what
    :meth:`~repro.sweep.backends.localpool.LocalPoolBackend.submit`
    yields: ``(point_index, payload, submit_ns)``."""
    for point, ctx in items:
        start_ns = time.perf_counter_ns()
        yield ctx.point_index, simulate_point(point, ctx), start_ns


def merge_plan_cache(docs) -> dict:
    """Sum keyed ``plan_cache`` counter docs (missing/None skipped) and
    derive the combined hit rate.  The single summing helper behind
    both the per-machine harvest and the cross-point aggregate."""
    total = PlanCacheStats().as_dict()
    del total["hit_rate"]
    for doc in docs:
        if not doc:
            continue
        for key in total:
            total[key] += doc.get(key, 0)
    lookups = total["hits"] + total["misses"]
    total["hit_rate"] = total["hits"] / lookups if lookups else 0.0
    return total


def _harvest_plan_cache(machine, cores) -> dict:
    """Sum compile-tier counters over the point's cores."""
    return merge_plan_cache(
        machine.core(core_id).plan_stats.as_dict() for core_id in cores
    )


@dataclass
class SweepStats:
    """Cache and execution counters for one or more plan runs."""

    points: int = 0
    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    elapsed_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.points if self.points else 0.0

    def merge(self, other: "SweepStats") -> None:
        self.points += other.points
        self.hits += other.hits
        self.misses += other.misses
        self.corrupt += other.corrupt
        self.elapsed_seconds += other.elapsed_seconds

    def to_dict(self) -> dict:
        return {
            "points": self.points,
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "hit_rate": self.hit_rate,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def describe(self) -> str:
        return (f"{self.points} point(s): {self.hits} cached, "
                f"{self.misses} simulated"
                + (f", {self.corrupt} corrupt entr(y/ies) re-simulated"
                   if self.corrupt else "")
                + (f" ({self.hit_rate:.0%} hit rate)" if self.points else ""))


@dataclass
class SweepRun:
    """Measurements in plan order plus the run's cache statistics.

    ``plan_cache`` aggregates the compile-tier telemetry of the points
    this run simulated; a point replayed from the sweep cache adds
    nothing, so a fully cached run reports zeros.  ``telemetry`` is the
    merged distributed-telemetry summary (worker table, per-point
    status including replayed-from-cache marks) — purely observational,
    never part of any measurement checksum.
    """

    measurements: List[Measurement]
    stats: SweepStats
    keys: List[str] = field(default_factory=list)
    plan_cache: dict = field(default_factory=dict)
    telemetry: dict = field(default_factory=dict)
    #: where the misses ran: "serial" or "pool" ("cached" when every
    #: point replayed from the cache) — observational only, never part
    #: of any checksum
    backend: str = "cached"


def run_plan(plan: SweepPlan, jobs: Optional[int] = None,
             cache: Optional[SweepCache] = None,
             bus: Optional[TraceBus] = None,
             progress: Optional[Callable[[int, int, SweepPoint, str], None]]
             = None,
             stats: Optional[SweepStats] = None,
             telemetry: Optional[bool] = None,
             on_point: Optional[Callable[[int, int, SweepPoint, str], None]]
             = None) -> SweepRun:
    """Execute a plan: replay cached points, simulate the rest.

    ``cache=None`` disables memoisation entirely.  ``bus`` receives one
    ``sweep`` event per point and a closing ``mark``; ``progress`` is
    called as ``(done, total, point, status)`` after each point.
    ``stats`` lets callers accumulate counters across several plans
    (the experiment runner does); a fresh one is used when omitted.

    Cache misses run serially, in plan order, when ``jobs`` is 1 or
    only one point misses; otherwise on a
    :class:`~repro.sweep.backends.localpool.LocalPoolBackend` of
    ``min(jobs, misses)`` workers that lives for this run only.  Results
    are bit-identical and cache-compatible either way.

    ``telemetry`` switches distributed telemetry collection: ``None``
    (default) enables it exactly when the pool runs the points — serial
    runs keep the span-capture cost off their hot path unless asked.  A
    run with no misses collects nothing and reports ``collected: false``.
    ``on_point`` is called as ``(done, total, point, status)`` the
    moment each point *completes* (cache hits during the probe,
    simulated points as their results land, in completion order) —
    unlike ``progress``, which fires in plan order after everything is
    done.  The live dashboard hangs off ``on_point``.
    """
    jobs = resolve_jobs(jobs)
    run_id = remote.new_run_id()
    run_stats = SweepStats()
    started = time.perf_counter()
    points = list(plan)
    keys = [point_key(p) for p in points]
    payloads: List[Optional[dict]] = [None] * len(points)
    status: List[str] = [""] * len(points)
    sections: List[Optional[dict]] = [None] * len(points)
    submit_ns: List[Optional[int]] = [None] * len(points)

    completed = 0

    def _notify(point: SweepPoint, outcome: str) -> None:
        nonlocal completed
        completed += 1
        if on_point is not None:
            on_point(completed, len(points), point, outcome)

    point_seconds = REGISTRY.histogram(
        "repro_sweep_point_seconds",
        "Wall time to produce one sweep point (cache replays excluded)",
    )

    pending: List[int] = []
    with SPANS("sweep.cache.probe"):
        for idx, key in enumerate(keys):
            if cache is None:
                status[idx] = "miss"
                pending.append(idx)
                continue
            payload, outcome = cache.lookup(key)
            if outcome == HIT:
                payloads[idx] = payload
                status[idx] = HIT
                _notify(points[idx], HIT)
            else:
                if outcome == CORRUPT:
                    run_stats.corrupt += 1
                status[idx] = outcome
                pending.append(idx)

    backend_name = "cached"
    collect = False
    pool = None
    if pending:
        if jobs > 1 and len(pending) > 1:
            from .backends.localpool import LocalPoolBackend
            pool = LocalPoolBackend(min(jobs, len(pending)))
            backend_name = "pool"
        else:
            backend_name = "serial"
        collect = pool is not None if telemetry is None else bool(telemetry)
        items = [(points[idx], remote.TraceContext(
            run_id=run_id, point_index=idx, collect=collect))
            for idx in pending]
        try:
            results = (pool.submit(items) if pool is not None
                       else _simulate_inline(items))
            with SPANS("sweep.run", points=len(pending),
                       backend=backend_name):
                for idx, payload, start_ns in results:
                    payloads[idx] = payload
                    submit_ns[idx] = start_ns
                    point_seconds.observe(
                        (time.perf_counter_ns() - start_ns) / 1e9)
                    _notify(points[idx], status[idx])
        finally:
            if pool is not None:
                pool.close()
        # Telemetry never reaches the content-addressed cache: pop it
        # here so stored payloads (and their checksums) are identical
        # with collection on or off.
        for idx in pending:
            if payloads[idx] is not None:
                sections[idx] = payloads[idx].pop("telemetry", None)
        if cache is not None:
            with SPANS("sweep.store"):
                for idx in pending:
                    cache.store(keys[idx], payloads[idx])

    run_stats.points = len(points)
    run_stats.hits = sum(1 for s in status if s == HIT)
    run_stats.misses = len(pending)
    run_stats.elapsed_seconds = time.perf_counter() - started
    REGISTRY.absorb_sweep_stats(run_stats.to_dict())
    plan_cache = merge_plan_cache(payloads[idx].get("plan_cache")
                                  for idx in pending if payloads[idx])
    REGISTRY.absorb_plan_cache(plan_cache)
    telemetry_doc = remote.merge_run_telemetry(
        run_id, sections, status, [p.label() for p in points], submit_ns,
        elapsed_seconds=run_stats.elapsed_seconds, collected=collect,
    )
    if pending:
        # a failed point or a dead worker raised above, so every
        # dispatched point completed
        telemetry_doc["backend"] = {
            "backend": backend_name, "parallel": pool is not None,
            "dispatched": len(pending), "completed": len(pending),
            "worker_deaths": 0,
            "workers_spawned": pool.jobs if pool is not None else 0,
        }

    measurements: List[Measurement] = []
    done = 0
    for idx, (point, payload) in enumerate(zip(points, payloads)):
        measurements.append(payload_to_measurement(payload))
        done += 1
        if bus is not None:
            bus.emit(TraceEvent(
                SWEEP, point.label(), ts=time.perf_counter() - started,
                args={"status": status[idx], "key": keys[idx][:12],
                      "kernel": point.kernel, "n": point.n,
                      "protocol": point.protocol,
                      "threads": len(point.cores)},
            ))
        if progress is not None:
            progress(done, len(points), point, status[idx])
    if bus is not None:
        bus.emit(TraceEvent(
            MARK, "sweep:done", ts=time.perf_counter() - started,
            args=run_stats.to_dict(),
        ))
    if stats is not None:
        stats.merge(run_stats)
    return SweepRun(measurements=measurements, stats=run_stats, keys=keys,
                    plan_cache=plan_cache, telemetry=telemetry_doc,
                    backend=backend_name)
