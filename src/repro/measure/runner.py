"""Measurement runner: the paper's full W/Q/T methodology.

For each repetition the runner performs the two-run subtraction
discipline:

* **run A** — initialise the kernel's buffers (the "framework
  overhead"), apply the cache protocol, execute the measured kernel;
* **run B** — identical, minus the measured execution.

Counter deltas ``A - B`` isolate the kernel's own work and traffic from
setup stores, protocol sweeps, warmup passes, and platform background
noise.  Runtime is taken directly around the measured execution (the
TSC needs no subtraction).  Medians over repetitions are reported.

The simulator is deterministic, so where :mod:`repro.measure.replay`
proves it exact, only the first run A is simulated: every run B and
every later repetition is replayed from its recorded counter deltas
and wall cycles, with bit-identical results.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import AllocationError, ConfigurationError, MeasurementError
from ..isa.builder import ProgramBuilder
from ..kernels.base import CodegenCaps, Kernel
from ..machine.machine import LoadedProgram, Machine
from ..obs.metrics import REGISTRY, MetricsRegistry
from ..obs.spans import SPANS
from ..pmu.perf import PerfSession
from ..trace.events import MARK, TraceEvent
from ..units import CACHE_LINE_BYTES
from .protocol import Protocol, make_protocol
from .replay import RunLog, _skip_reason
from .stats import Summary, summarize
from .traffic import TRAFFIC_EVENTS, bytes_from_session
from .work import WORK_EVENTS_F64, flops_from_session


#: bytes by which the background noise's rounding can move one A - B
#: traffic delta, per DRAM node: one line per traffic counter
#: (:attr:`~repro.pmu.uncore.UncorePmu.rounding_lines`); the median
#: over repetitions keeps the bound
NOISE_FLOOR_BYTES = float(CACHE_LINE_BYTES * len(TRAFFIC_EVENTS))


@dataclass
class Measurement:
    """One kernel's measured W/Q/T at one size and configuration.

    ``work_flops`` is the *counter-derived* work (subject to the cold-
    cache overcount artifact — that is the point of the validation
    experiments); ``true_flops`` is the implementation's exact flop
    count.  Roofline points use ``true_flops`` for performance and the
    measured traffic for intensity, matching the paper's validated
    practice; ``counted_*`` properties expose the raw-counter view.

    ``llc_bytes`` is the traffic a *cache-event* measurement would
    report (LLC demand misses x line size).  With prefetchers active it
    undercounts — the reason the methodology reads the IMC instead.
    """

    #: kernel name as registered (e.g. ``"triad"``)
    kernel: str
    #: problem size (elements per vector, matrix order, ... per kernel)
    n: int
    #: number of cores that executed the kernel in parallel
    threads: int
    #: cache-state protocol applied before the measured run
    #: (``cold`` / ``warm`` / ...)
    protocol: str
    #: name of the machine preset measured on
    machine: str
    #: counter-derived work W in flops — median of the per-rep A-B
    #: deltas; inflated on cold caches by the reissue artifact
    work_flops: float
    #: counter-derived memory traffic Q in bytes (IMC CAS reads+writes
    #: times the line size), median of the per-rep A-B deltas
    traffic_bytes: float
    #: traffic a cache-event measurement would report (LLC demand
    #: misses x line size) — undercounts when prefetchers are on
    llc_bytes: float
    #: measured runtime T in seconds (TSC around the measured run)
    runtime_seconds: float
    #: the implementation's exact flop count (ground truth for W)
    true_flops: int
    #: minimum possible traffic: every input/output byte moved once
    compulsory_bytes: int
    #: number of measurement repetitions the medians summarise
    reps: int
    #: per-level traffic in bytes (median A-B deltas, line-granular):
    #: ``L1`` = demand accesses resolved anywhere, ``L2`` = lines
    #: filled into L1, ``L3`` = lines filled into L2, ``DRAM`` = IMC
    #: CAS traffic (== ``traffic_bytes``).  The hierarchical roofline's
    #: per-level intensities divide ``true_flops`` by these.
    level_bytes: Optional[dict] = None
    #: per-rep distribution of the work deltas (median/mean/min/max)
    work_summary: Optional[Summary] = None
    #: per-rep distribution of the traffic deltas
    traffic_summary: Optional[Summary] = None
    #: per-rep distribution of the measured runtimes
    runtime_summary: Optional[Summary] = None
    #: structured trace of the first repetition's measured window
    #: (a :class:`repro.trace.TraceCollector` or
    #: :class:`repro.trace.TimelineSampler`), when requested via
    #: ``measure_kernel(..., trace=...)``; ``None`` otherwise
    trace: Optional[object] = None
    #: how far the background noise's rounding alone can move the
    #: measured traffic: one line per IMC counter per DRAM node
    #: (:attr:`repro.pmu.uncore.UncorePmu.rounding_lines`)
    noise_floor_bytes: float = NOISE_FLOOR_BYTES

    # ------------------------------------------------------------------
    # derived roofline coordinates
    # ------------------------------------------------------------------
    @property
    def performance(self) -> float:
        """Flops/s from exact work and measured runtime."""
        return self.true_flops / self.runtime_seconds

    @property
    def below_noise_floor(self) -> bool:
        """Whether the measured traffic is within the noise rounding of
        zero: a cache-resident run whose true DRAM traffic is nil."""
        return self.traffic_bytes < self.noise_floor_bytes

    @property
    def intensity(self) -> float:
        """Flops/byte from exact work and measured traffic.

        Warm cache-resident runs can measure (near-)zero DRAM traffic,
        or slightly negative traffic within :attr:`noise_floor_bytes`;
        their intensity is floored at one cache line of traffic, placing
        them far right on the plot — the regime the paper notes its
        methodology leaves to cache-level analysis.  Traffic further
        below zero than the noise can explain is a broken subtraction.
        """
        if self.traffic_bytes < -self.noise_floor_bytes:
            raise MeasurementError(
                f"{self.kernel}: negative measured traffic "
                f"({self.traffic_bytes}) beyond the "
                f"{self.noise_floor_bytes:g}-byte noise floor; A/B "
                f"subtraction is broken"
            )
        return self.true_flops / max(self.traffic_bytes, 64.0)

    def level_intensity(self, level: str) -> float:
        """Arithmetic intensity against one cache level's traffic.

        ``true_flops / bytes-moved-at-level`` with the same one-line
        floor as :attr:`intensity` (a level a warm run never touches
        would otherwise divide by zero).
        """
        if not self.level_bytes or level not in self.level_bytes:
            raise MeasurementError(
                f"{self.kernel}: no measured traffic for level {level!r}"
            )
        return self.true_flops / max(self.level_bytes[level], 64.0)

    @property
    def work_overcount(self) -> float:
        """Measured W / true W — the overcount factor of experiment F2."""
        return self.work_flops / self.true_flops if self.true_flops else 0.0

    @property
    def traffic_ratio(self) -> float:
        """Measured Q / compulsory Q — the inflation of experiment F3."""
        return self.traffic_bytes / self.compulsory_bytes

    def label(self) -> str:
        return f"{self.kernel} n={self.n} ({self.protocol}, {self.threads}t)"


def build_init_program(buffers: dict, line_bytes: int = 64):
    """Initialisation pass: touch every line of every buffer with a
    store, the way a test harness fills its arrays before the kernel."""
    b = ProgramBuilder()
    value = b.reg()
    for name in sorted(buffers):
        size = buffers[name]
        handle = b.buffer(name, size)
        trips = max(size // line_bytes, 1 if size >= 8 else 0)
        if trips:
            with b.loop(trips, f"init_{name}") as i:
                b.store(value, handle[i * line_bytes], width=64)
        if trips * line_bytes < size and size >= 8:
            b.store(value, handle[size - 8], width=64)
    return b.build()


def measure_kernel(machine: Machine, kernel: Kernel, n: int,
                   protocol="cold", cores: Sequence[int] = (0,),
                   reps: int = 3, width_bits: Optional[int] = None,
                   trace=None) -> Measurement:
    """Measure one kernel configuration with the full methodology.

    ``trace`` requests a structured trace of the first repetition:
    pass ``True`` for a fresh :class:`~repro.trace.TraceCollector`, a
    :class:`~repro.trace.TimelineConfig` for a windowed
    :class:`~repro.trace.TimelineSampler`, or an existing
    collector/sink to reuse.  The sink is attached to the machine's
    trace bus only around the first rep's A window — it merely records
    events, so the measured W/Q/T are identical with and without it
    (a regression test asserts this exactly).  Repetitions are
    identical, so tracing the first instead of another one moves only
    the absolute timestamps.

    Where :func:`repro.measure.replay._skip_reason` allows it, only
    that first run A is simulated; every run B and every later
    repetition is replayed exactly (``repro_measure_reps_total``
    counts both modes, ``repro_measure_replay_skipped_total`` the
    measurements simulated in full, by reason).
    """
    if reps < 1:
        raise MeasurementError("need at least one repetition")
    collector = None
    if trace is not None and trace is not False:
        from ..trace.collector import TraceCollector
        from ..trace.timeline import TimelineConfig, TimelineSampler

        if trace is True:
            collector = TraceCollector(machine)
        elif isinstance(trace, TimelineConfig):
            collector = TimelineSampler(machine, trace)
        else:
            collector = trace
    cores = tuple(cores)
    proto: Protocol = make_protocol(protocol)
    caps = CodegenCaps.from_machine(machine, width_bits)
    kernel.validate_n(n, caps, len(cores))
    # a size the simulated address space cannot hold is the request's
    # fault; checked before building so no huge program is generated
    space = machine.allocator.capacity
    too_big = ConfigurationError(
        f"{kernel.name}: n={n} needs more than the {space}-byte "
        f"simulated address space")
    if kernel.footprint_bytes(n) > space:
        raise too_big

    jobs: List[Tuple[LoadedProgram, int]] = []
    init_jobs: List[Tuple[LoadedProgram, int]] = []
    for rank, core_id in enumerate(cores):
        program = kernel.build(n, caps, rank=rank, nranks=len(cores))
        node = machine.topology.node_of_core(core_id)
        try:
            loaded = machine.load(program, node=node)
        except AllocationError:
            raise too_big from None
        jobs.append((loaded, core_id))
        init_program = build_init_program(program.buffers)
        init_jobs.append(
            (LoadedProgram(init_program, loaded.buffer_map, node), core_id)
        )

    def simulate(batch):
        # a run too large for the host (its prefetched-line table cannot
        # be mapped) is the request's fault, like a too-large footprint
        try:
            return machine.run_parallel(batch)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{kernel.name}: n={n}: {exc}") from exc

    def run_inits():
        simulate(init_jobs)

    def run_kernel():
        return simulate(jobs)

    level_events = ("l1_accesses", "l1_replacement", "l2_lines_in")
    core_events = WORK_EVENTS_F64 + ("llc_misses",) + level_events

    def session():
        return PerfSession(machine, core_events=core_events,
                           uncore_events=TRAFFIC_EVENTS, cores=cores)

    work_reps: List[float] = []
    traffic_reps: List[float] = []
    llc_reps: List[float] = []
    runtime_reps: List[float] = []
    level_reps: dict = {event: [] for event in level_events}
    skipped = _skip_reason(machine, proto)
    log = None if skipped else RunLog(machine)
    with SPANS("measure.kernel", kernel=kernel.name, n=n):
        for rep in range(reps):
            if rep and log is not None:
                with SPANS("measure.replay"):
                    with session() as a:
                        log.replay()
                    with session() as b:
                        log.replay(baseline=True)
            else:
                # each session starts from fresh-process cache state so
                # the A/B windows are symmetric: without this, dirty
                # lines left by A's measured kernel would be written
                # back during B's window and the subtraction could go
                # negative
                tracing = collector is not None and rep == 0
                machine.bust_caches()
                if tracing:
                    machine.trace.attach(collector)
                try:
                    with SPANS("measure.rep"), \
                            (log or contextlib.nullcontext()), \
                            session() as a:
                        run_inits()
                        proto.prepare(machine, run_kernel)
                        if log is not None:
                            log.mark_prefix()
                        if tracing:
                            machine.trace.emit(TraceEvent(
                                MARK, "measured:begin", machine.tsc
                            ))
                        run_result = run_kernel()
                        if tracing:
                            machine.trace.emit(TraceEvent(
                                MARK, "measured:end", machine.tsc
                            ))
                finally:
                    if tracing:
                        machine.trace.detach()
                if log is not None:
                    # session B is A's prefix from the same post-bust
                    # state: derived, not simulated
                    with SPANS("measure.replay"), session() as b:
                        log.replay(baseline=True)
                else:
                    machine.bust_caches()
                    with SPANS("measure.baseline"), session() as b:
                        run_inits()
                        proto.prepare(machine, run_kernel)
            work_reps.append(flops_from_session(a) - flops_from_session(b))
            traffic_reps.append(bytes_from_session(a)
                                - bytes_from_session(b))
            llc_reps.append(64.0 * (a.core_delta("llc_misses")
                                    - b.core_delta("llc_misses")))
            for event in level_events:
                level_reps[event].append(64.0 * (a.core_delta(event)
                                                 - b.core_delta(event)))
            runtime_reps.append(run_result.seconds)
        if log is not None:
            log.restore()
    _count_reps(reps, skipped)

    work = summarize(work_reps)
    traffic = summarize(traffic_reps)
    llc = summarize(llc_reps)
    runtime = summarize(runtime_reps)
    level_bytes = {
        "L1": summarize(level_reps["l1_accesses"]).median,
        "L2": summarize(level_reps["l1_replacement"]).median,
        "L3": summarize(level_reps["l2_lines_in"]).median,
        "DRAM": traffic.median,
    }
    return Measurement(
        kernel=kernel.name,
        n=n,
        threads=len(cores),
        protocol=proto.name,
        machine=machine.spec.name,
        work_flops=work.median,
        traffic_bytes=traffic.median,
        llc_bytes=llc.median,
        runtime_seconds=runtime.median,
        true_flops=kernel.expected_flops(n, caps, len(cores)),
        compulsory_bytes=kernel.compulsory_bytes(n),
        reps=reps,
        level_bytes=level_bytes,
        work_summary=work,
        traffic_summary=traffic,
        runtime_summary=runtime,
        trace=collector,
        noise_floor_bytes=NOISE_FLOOR_BYTES * machine.uncore.rounding_lines,
    )


#: where :func:`measure_kernel` counts repetitions; see
#: :func:`counting_into`
_COUNTS: "contextvars.ContextVar[MetricsRegistry]" = (
    contextvars.ContextVar("repro_measure_counts", default=REGISTRY)
)


@contextlib.contextmanager
def counting_into(registry: MetricsRegistry):
    """Count the repetitions of the measurements made inside the block
    in ``registry`` instead of the process ``REGISTRY``.

    A sweep point counts into the registry its telemetry ships, so the
    parent's exposition gets the same counts whichever process
    simulated the point.
    """
    token = _COUNTS.set(registry)
    try:
        yield registry
    finally:
        _COUNTS.reset(token)


def _count_reps(reps: int, skipped) -> None:
    """Record how one measurement's repetitions ran."""
    registry = _COUNTS.get()
    counted = registry.counter(
        "repro_measure_reps_total",
        "Measurement repetitions by mode (simulated in full, or replayed "
        "from the first repetition's recorded runs)",
        labelnames=("mode",),
    )
    skips = registry.counter(
        "repro_measure_replay_skipped_total",
        "Measurements that simulated every session in full, by the "
        "reason replay was ruled out",
        labelnames=("reason",),
    )
    if skipped is None:
        counted.inc(1, mode="simulated")
        counted.inc(reps - 1, mode="replayed")
    else:
        counted.inc(reps, mode="simulated")
        skips.inc(reason=skipped)


def measure_sweep(machine: Machine, kernel: Kernel, sizes: Iterable[int],
                  **kwargs) -> List[Measurement]:
    """Measure a kernel across problem sizes (one roofline trajectory)."""
    return [measure_kernel(machine, kernel, n, **kwargs) for n in sizes]
