"""Machine assembly: cores + hierarchy + PMUs + clock under one object.

A :class:`Machine` is the simulated platform the methodology measures.
It owns the NUMA topology, per-core interpreters and PMUs, the shared
memory hierarchy, the uncore counters, the frequency governor, and the
TSC.  Programs are *loaded* (buffers mapped into the simulated address
space with NUMA placement) and then *run* on one core or on many.

Parallel runs use static partitioning: each participating core executes
its own program; functional cache state is simulated per core (private
L1/L2, shared socket L3) and DRAM bandwidth is divided among the active
cores of each node — the contention that bends the parallel rooflines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..cpu.core import Core, ExecutionResult
from ..cpu.frequency import FrequencyGovernor
from ..cpu.port_model import PortModel
from ..cpu.timing import TimingParams
from ..engine import ckernel, validate_engine
from ..errors import ConfigurationError, ExecutionError
from ..isa.program import Program
from ..memory.allocator import Allocation, BumpAllocator
from ..memory.hierarchy import HierarchyConfig, MemoryHierarchy
from ..memory.numa import Topology
from ..pmu.core_pmu import CorePmu
from ..pmu.uncore import UncorePmu
from ..prefetch.control import PrefetchControl


@dataclass(frozen=True)
class MachineSpec:
    """Full static description of one simulated platform."""

    name: str
    topology: Topology
    ports: PortModel
    hierarchy: HierarchyConfig
    base_hz: float
    turbo_steps: Tuple[float, ...] = ()
    timing: TimingParams = field(default_factory=TimingParams)
    noise_lines_per_megacycle: float = 20.0

    def __post_init__(self) -> None:
        if self.base_hz <= 0:
            raise ConfigurationError("base frequency must be positive")

    def total_cache_bytes(self) -> int:
        """Aggregate capacity of every cache in the machine."""
        h, topo = self.hierarchy, self.topology
        return (topo.total_cores * (h.l1.size_bytes + h.l2.size_bytes)
                + topo.sockets * h.l3.size_bytes)

    def theoretical_peak_flops(self, width_bits: Optional[int] = None,
                               cores: int = 1) -> float:
        """Datasheet peak flop/s at base clock for ``cores`` cores."""
        width = width_bits or self.ports.max_simd_width
        return self.ports.peak_flops_per_cycle(width) * self.base_hz * cores

    def theoretical_peak_bandwidth(self, nodes: int = 1) -> float:
        """Datasheet DRAM bandwidth in bytes/s across ``nodes`` sockets."""
        if not 0 < nodes <= self.topology.sockets:
            raise ConfigurationError(f"machine has {self.topology.sockets} nodes")
        return self.hierarchy.dram.bytes_per_cycle_total * self.base_hz * nodes


@dataclass
class LoadedProgram:
    """A program with its buffers mapped to simulated memory."""

    program: Program
    buffer_map: Dict[str, Allocation]
    node: int


@dataclass
class RunResult:
    """Outcome of one (possibly parallel) program run."""

    seconds: float
    cycles: float
    frequency_hz: float
    active_cores: int
    per_core: Dict[int, ExecutionResult]

    @property
    def result(self) -> ExecutionResult:
        """The single-core result (convenience for sequential runs)."""
        if len(self.per_core) != 1:
            raise ExecutionError("run used multiple cores; inspect per_core")
        return next(iter(self.per_core.values()))

    @property
    def total_true_flops(self) -> int:
        return sum(r.true_flops for r in self.per_core.values())


def _walk_reason(hierarchy: HierarchyConfig, engine: str) -> Optional[str]:
    """Why a machine's cores walk every access in Python instead of
    running it in the C datapath kernel, or ``None`` when they run in
    the kernel (one of :data:`~repro.engine.plan.NEST_FALLBACK_REASONS`).

    The kernel models the fast engine on LRU caches only, and runs
    only where it loaded (cached per process).
    """
    if engine != "fast":
        return "reference_engine"
    if any(level.policy != "lru"
           for level in (hierarchy.l1, hierarchy.l2, hierarchy.l3)):
        return "replacement_policy"
    if not ckernel.available():
        return "no_ckernel"
    return None


class Machine:
    """One simulated platform instance; its datapath is fixed when it
    is built (:func:`_walk_reason`)."""

    def __init__(self, spec: MachineSpec, engine: str = "fast") -> None:
        self.spec = spec
        self._engine = validate_engine(engine)
        #: why every core of this machine walks, or ``None`` when they
        #: run in the C kernel over the hierarchy's array state
        self.walk_reason = _walk_reason(spec.hierarchy, engine)
        self.topology = spec.topology
        self.ports = spec.ports
        self.governor = FrequencyGovernor(
            spec.base_hz, spec.turbo_steps, turbo_enabled=False
        )
        self.hierarchy = MemoryHierarchy(spec.hierarchy, spec.topology,
                                         array=self.walk_reason is None)
        #: the machine-wide trace event bus (see :mod:`repro.trace`);
        #: disabled until a sink is attached, at zero simulation cost
        self.trace = self.hierarchy.bus
        self.allocator = BumpAllocator()
        self.uncore = UncorePmu(
            self.hierarchy.dram,
            noise_lines_per_megacycle=spec.noise_lines_per_megacycle,
        )
        self.tsc: float = 0.0
        self._core_pmus: Dict[int, CorePmu] = {}
        self._cores: Dict[int, Core] = {}
        self._sessions: List[object] = []

    # ------------------------------------------------------------------
    # session observers (counter-multiplexing support)
    # ------------------------------------------------------------------
    def register_session(self, session) -> None:
        """Sessions that need run-boundary counter snapshots (see
        :mod:`repro.pmu.multiplex`) register here; each finished run
        calls ``session.on_run_boundary(run_result)``."""
        self._sessions.append(session)

    def unregister_session(self, session) -> None:
        if session in self._sessions:
            self._sessions.remove(session)

    # ------------------------------------------------------------------
    # component access
    # ------------------------------------------------------------------
    @property
    def engine(self) -> str:
        """The execution engine, fixed at construction."""
        return self._engine

    @property
    def prefetch_control(self) -> PrefetchControl:
        return self.hierarchy.prefetch_control

    def core_pmu(self, core_id: int) -> CorePmu:
        if core_id not in self._core_pmus:
            self._check_core(core_id)
            self._core_pmus[core_id] = CorePmu(core_id)
        return self._core_pmus[core_id]

    def core(self, core_id: int) -> Core:
        if core_id not in self._cores:
            self._check_core(core_id)
            self._cores[core_id] = Core(
                core_id,
                self.ports,
                self.spec.hierarchy,
                self.hierarchy.port(core_id),
                self.core_pmu(core_id),
                self.spec.timing,
                walk_reason=self.walk_reason,
            )
        return self._cores[core_id]

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.topology.total_cores:
            raise ConfigurationError(
                f"no core {core_id} on {self.spec.name} "
                f"({self.topology.total_cores} cores)"
            )

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load(self, program: Program, node: int = 0) -> LoadedProgram:
        """Map a program's buffers onto NUMA ``node`` (numactl --membind)."""
        if not 0 <= node < self.topology.sockets:
            raise ConfigurationError(f"no NUMA node {node}")
        buffer_map = {}
        for name, size in sorted(program.buffers.items()):
            unique = f"{name}@{id(program):x}:{self.allocator.bytes_allocated:x}"
            buffer_map[name] = self.allocator.allocate(unique, size, node=node)
        return LoadedProgram(program, buffer_map, node)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, loaded: LoadedProgram, core_id: int = 0) -> RunResult:
        """Execute one program on one core (everything else idle)."""
        return self.run_parallel([(loaded, core_id)])

    def run_parallel(
        self, jobs: Sequence[Tuple[LoadedProgram, int]]
    ) -> RunResult:
        """Execute one program per core simultaneously.

        DRAM bandwidth on each node is split evenly among that node's
        active cores; the run's wall time is the slowest core's time.
        """
        if not jobs:
            raise ExecutionError("no jobs to run")
        core_ids = [core_id for _loaded, core_id in jobs]
        if len(set(core_ids)) != len(core_ids):
            raise ExecutionError("one program per core: duplicate core id")
        # memory-controller contention follows the *data's* home node:
        # sixteen unbound cores hammering node 0 share node 0's channels
        # no matter which socket they sit on
        contenders_by_node: Dict[int, int] = {}
        for loaded, _core_id in jobs:
            contenders_by_node[loaded.node] = (
                contenders_by_node.get(loaded.node, 0) + 1
            )
        active = len(core_ids)
        frequency = self.governor.frequency(active)
        dram = self.spec.hierarchy.dram
        # trace timestamps for this run start at the current TSC
        self.trace.now = self.tsc
        per_core: Dict[int, ExecutionResult] = {}
        for loaded, core_id in jobs:
            share = dram.bytes_per_cycle_total / contenders_by_node[loaded.node]
            bpc = min(dram.per_core_bytes_per_cycle, share)
            per_core[core_id] = self.core(core_id).execute(
                loaded.program, loaded.buffer_map, bpc
            )
        wall_cycles = max(r.cycles for r in per_core.values())
        self.tsc += wall_cycles
        result = RunResult(
            seconds=wall_cycles / frequency,
            cycles=wall_cycles,
            frequency_hz=frequency,
            active_cores=active,
            per_core=per_core,
        )
        for session in self._sessions:
            session.on_run_boundary(result)
        return result

    def run_on_cores(self, program_factory, core_ids: Iterable[int],
                     bind_memory: bool = True) -> RunResult:
        """Build per-core programs with ``program_factory(rank, nranks)``
        and run them together; memory is bound to each core's node when
        ``bind_memory`` (the numactl discipline the paper insists on),
        otherwise everything is allocated on node 0."""
        core_ids = list(core_ids)
        jobs = []
        for rank, core_id in enumerate(core_ids):
            program = program_factory(rank, len(core_ids))
            node = self.topology.node_of_core(core_id) if bind_memory else 0
            jobs.append((self.load(program, node=node), core_id))
        return self.run_parallel(jobs)

    # ------------------------------------------------------------------
    # state control
    # ------------------------------------------------------------------
    def bust_caches(self) -> None:
        """Drop all cache and prefetcher state (cold protocol support)."""
        self.hierarchy.bust()

    def advance_tsc(self, cycles: float) -> None:
        """Model idle wall time between runs (background noise accrues)."""
        if cycles < 0:
            raise ExecutionError("time only moves forward")
        self.tsc += cycles

    def __repr__(self) -> str:
        t = self.topology
        return (
            f"Machine({self.spec.name}: {t.sockets}x{t.cores_per_socket} cores, "
            f"{self.spec.base_hz / 1e9:.2f} GHz)"
        )
