"""The roofline model: ceilings, measured construction, analysis,
ASCII/SVG plotting, and data export."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".analysis": ("BOUND_COMPUTE", "BOUND_MEMORY", "PointAnalysis",
                  "analyze_point", "check_point_sanity",
                  "speedup_if_compute_bound"),
    ".builder": ("build_roofline", "theoretical_roofline"),
    ".cache_aware": ("build_cache_aware_roofline", "level_bandwidth_map",
                     "served_from"),
    ".ert": ("DiscoveredCeiling", "ErtCeilings", "LEVELS",
             "discover_ceilings", "ert_plan", "ert_working_sets"),
    ".export": ("model_to_dict", "points_to_csv", "to_json",
                "trajectories_to_csv"),
    ".hierarchical": ("AnalyzeResult", "HierarchicalRoofline", "analyze",
                      "hierarchical_points"),
    ".model": ("ComputeCeiling", "MemoryCeiling", "RooflineModel"),
    ".plot_ascii": ("ascii_plot",),
    ".plot_svg": ("save_svg", "svg_plot"),
    ".point": ("KernelPoint", "Trajectory"),
})
