"""Experiment framework: one class per paper table/figure.

Every experiment produces tables (the rows the paper reports), shape
*checks* (the qualitative claims that must hold for the reproduction to
count — who wins, what inflates, where crossovers sit), optional plot
artifacts, and free-form notes.  ``report.py`` renders the lot into
EXPERIMENTS.md.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ExperimentError
from ..machine.ref import MachineRef
from ..measure.runner import Measurement
from ..sweep.cache import SweepCache
from ..sweep.executor import SweepStats, run_plan
from ..sweep.plan import SweepPlan


@dataclass
class ExperimentConfig:
    """Knobs shared by all experiments.

    ``scale`` shrinks preset cache capacities (see presets docstring).

    The platform is described by a picklable :class:`MachineRef`
    (preset name + kwargs), *not* a factory callable: experiment
    measurement grids run through the sweep engine, whose worker
    processes rebuild machines from the ref.  ``machine_ref=None``
    means the default paper platform (Sandy Bridge-EP at ``scale``).

    ``jobs`` fans measurement points over a process pool (``None``
    defers to ``$REPRO_SWEEP_JOBS``, then serial); ``cache`` memoises
    every point in the content-addressed on-disk sweep cache so
    re-running an experiment only simulates points whose inputs
    changed.  ``stats``, when set, accumulates cache hit/miss counters
    across every sweep the experiments submit.
    """

    scale: float = 0.125
    reps: int = 2
    machine_ref: Optional[MachineRef] = None
    jobs: Optional[int] = None
    cache: bool = True
    cache_dir: Optional[str] = None
    stats: Optional[SweepStats] = field(default=None, repr=False,
                                        compare=False)

    # ------------------------------------------------------------------
    # platform access
    # ------------------------------------------------------------------
    def ref(self, sockets: int = 1,
            scale: Optional[float] = None) -> MachineRef:
        """The platform as a picklable recipe.

        A custom ``machine_ref`` wins outright; ``sockets``/``scale``
        parameterise only the default preset (experiments that need a
        different geometry on a custom platform build their own ref).
        """
        if self.machine_ref is not None:
            return self.machine_ref
        options = {"scale": scale if scale is not None else self.scale}
        if sockets != 1:
            options["sockets"] = sockets
        return MachineRef.of("snb-ep", **options)

    def machine(self, sockets: int = 1):
        """A fresh live machine for this experiment run."""
        return self.ref(sockets=sockets).build()

    # ------------------------------------------------------------------
    # measurement through the sweep engine
    # ------------------------------------------------------------------
    def sweep_cache(self) -> Optional[SweepCache]:
        return SweepCache(self.cache_dir) if self.cache else None

    def run_plan(self, plan: SweepPlan) -> List[Measurement]:
        """Execute a plan under this config's jobs/cache."""
        run = run_plan(plan, jobs=self.jobs, cache=self.sweep_cache(),
                       stats=self.stats)
        return run.measurements

    def sweep(self, kernel: str, sizes: Sequence[int],
              protocol: str = "cold", reps: Optional[int] = None,
              cores: Tuple[int, ...] = (0,),
              machine: Optional[MachineRef] = None,
              kernel_args: Optional[dict] = None) -> List[Measurement]:
        """Measure one kernel across sizes (a roofline trajectory)."""
        plan = SweepPlan()
        plan.add_sweep(machine or self.ref(), kernel, sizes,
                       protocol=protocol,
                       reps=self.reps if reps is None else reps,
                       cores=cores, kernel_args=kernel_args)
        return self.run_plan(plan)

    def measure(self, kernel: str, n: int, protocol: str = "cold",
                reps: Optional[int] = None, cores: Tuple[int, ...] = (0,),
                machine: Optional[MachineRef] = None,
                kernel_args: Optional[dict] = None) -> Measurement:
        """Measure a single point through the same engine (cached too)."""
        return self.sweep(kernel, [n], protocol=protocol, reps=reps,
                          cores=cores, machine=machine,
                          kernel_args=kernel_args)[0]


@dataclass
class Table:
    """One reported table."""

    title: str
    columns: List[str]
    rows: List[List] = field(default_factory=list)

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ExperimentError(
                f"row width {len(values)} != {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def render(self) -> str:
        """GitHub-flavoured markdown."""
        def fmt(value) -> str:
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        lines = [f"**{self.title}**", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(fmt(v) for v in row) + " |")
        return "\n".join(lines)


@dataclass
class Check:
    """One shape criterion with its verdict."""

    name: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"- [{mark}] {self.name}" + (f" — {self.detail}" if self.detail else "")


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    experiment_id: str
    title: str
    paper_item: str
    tables: List[Table] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    artifacts: Dict[str, str] = field(default_factory=dict)  # name -> content

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(passed), detail))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        lines = [f"### {self.experiment_id} — {self.title}",
                 "",
                 f"*Paper item:* {self.paper_item}",
                 ""]
        for table in self.tables:
            lines.append(table.render())
            lines.append("")
        if self.checks:
            lines.append("**Shape checks**")
            lines.append("")
            lines.extend(c.render() for c in self.checks)
            lines.append("")
        for note in self.notes:
            lines.append(f"> {note}")
            lines.append("")
        return "\n".join(lines)


class Experiment(ABC):
    """Base class: subclasses define id/title/paper_item and run()."""

    id: str = "X0"
    title: str = "abstract"
    paper_item: str = ""

    @abstractmethod
    def run(self, config: ExperimentConfig) -> ExperimentResult:
        """Execute and return results (must not mutate global state)."""

    def new_result(self) -> ExperimentResult:
        return ExperimentResult(self.id, self.title, self.paper_item)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id})"
