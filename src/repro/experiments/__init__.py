"""Experiments: one class per paper table/figure, plus ablations,
with shape checks and report generation."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("Check", "Experiment", "ExperimentConfig", "ExperimentResult",
              "Table"),
    ".registry": ("experiment_ids", "make_experiment"),
    ".report": ("render_report", "run_experiments", "write_artifacts"),
})
