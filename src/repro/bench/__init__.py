"""Platform microbenchmarks: peak flops and peak bandwidth."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cachebw": ("LEVELS", "LevelBandwidth", "measure_level_bandwidth",
                 "measure_level_bandwidths"),
    ".peakbw": ("PeakBandwidthResult", "bandwidth_methods", "best_bandwidth",
                "default_stream_elements", "measure_bandwidth",
                "peak_bandwidth_table"),
    ".peakflops": ("PeakFlopsResult", "measure_peak_flops",
                   "peak_flops_program", "peak_flops_table"),
})
