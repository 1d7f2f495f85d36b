"""Platform microbenchmarks: peak flops and peak bandwidth."""

from .cachebw import (
    LEVELS,
    LevelBandwidth,
    measure_level_bandwidth,
    measure_level_bandwidths,
)
from .peakbw import (
    PeakBandwidthResult,
    bandwidth_methods,
    best_bandwidth,
    default_stream_elements,
    measure_bandwidth,
    peak_bandwidth_table,
)
from .peakflops import (
    PeakFlopsResult,
    measure_peak_flops,
    peak_flops_program,
    peak_flops_table,
)

__all__ = [
    "LEVELS",
    "LevelBandwidth",
    "PeakBandwidthResult",
    "PeakFlopsResult",
    "bandwidth_methods",
    "best_bandwidth",
    "default_stream_elements",
    "measure_bandwidth",
    "measure_level_bandwidth",
    "measure_level_bandwidths",
    "measure_peak_flops",
    "peak_bandwidth_table",
    "peak_flops_program",
    "peak_flops_table",
]
