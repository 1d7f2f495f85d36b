"""Report generation: run experiments and render EXPERIMENTS.md."""

from __future__ import annotations

import os
import sys
import time
from typing import Iterable, List, Optional

from .base import ExperimentConfig, ExperimentResult
from .registry import experiment_ids, make_experiment

_HEADER = """# EXPERIMENTS — paper vs. measured

Reproduction of every table and figure of Ofenbeck et al.,
"Applying the Roofline Model" (ISPASS 2014), on the simulated platform
described in DESIGN.md.  Absolute numbers come from the simulator, so
the comparison is against the paper's *shapes*: each experiment carries
explicit shape checks (who wins, what inflates, where crossovers sit)
whose verdicts are recorded below.

Machines are cache-scaled presets (capacities x{scale}, bandwidths and
latencies unscaled) so the DRAM-resident regime is reached at
simulation-friendly sizes; see DESIGN.md for the substitution table.

This file is generated: CI regenerates it and fails when the output
differs. Regenerate it and `artifacts/` with
`python -m repro experiment --output EXPERIMENTS.md --artifacts artifacts/ --no-cache`.

An intensity written `>=` belongs to a point whose measured traffic is
below the noise floor (see `Measurement.noise_floor_bytes`), so only a
lower bound is known.
"""


def run_experiments(ids: Optional[Iterable[str]] = None,
                    config: Optional[ExperimentConfig] = None,
                    verbose: bool = True) -> List[ExperimentResult]:
    """Run a set of experiments and return their results.

    ``verbose`` prints one progress line per experiment, with its wall
    time, to stderr: stdout is left to the report.
    """
    config = config or ExperimentConfig()
    results = []
    for experiment_id in (list(ids) if ids else experiment_ids()):
        experiment = make_experiment(experiment_id)
        start = time.time()
        if verbose:
            print(f"[{experiment_id}] {experiment.title} ...",
                  file=sys.stderr, flush=True)
        result = experiment.run(config)
        if verbose:
            status = "ok" if result.passed else "SHAPE-CHECK FAILURES"
            print(f"[{experiment_id}] {status} ({time.time() - start:.1f}s)",
                  file=sys.stderr, flush=True)
        results.append(result)
    return results


def render_report(results: Iterable[ExperimentResult],
                  config: Optional[ExperimentConfig] = None) -> str:
    """EXPERIMENTS.md content for a set of results."""
    config = config or ExperimentConfig()
    parts = [_HEADER.format(scale=config.scale)]
    results = list(results)
    passed = sum(1 for r in results if r.passed)
    parts.append(
        f"**Summary: {passed}/{len(results)} experiments pass all their "
        f"shape checks.**\n"
    )
    for result in results:
        parts.append(result.render())
    return "\n".join(parts)


def write_artifacts(results: Iterable[ExperimentResult],
                    directory: str) -> List[str]:
    """Persist every experiment artifact (SVGs, CSVs) to ``directory``."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for result in results:
        for name, content in result.artifacts.items():
            path = os.path.join(directory, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
            written.append(path)
    return written
