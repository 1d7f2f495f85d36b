"""Core model: SIMD levels, execution-port throughput, frequency
governor, cycle-cost timing model, and the program interpreter."""

from .core import Core, ExecutionResult
from .frequency import FrequencyGovernor
from .port_model import (
    PortModel,
    haswell_ports,
    sandy_bridge_ports,
    skylake_avx512_ports,
)
from .simd import (
    ALL_LEVELS,
    AVX,
    AVX512,
    SCALAR,
    SSE,
    SimdLevel,
    level_by_name,
    level_by_width,
    levels_up_to,
)
from .timing import (
    PhaseCost,
    PhaseTable,
    TimingParams,
    phase_cycles,
    reissue_slots,
)

__all__ = [
    "ALL_LEVELS",
    "AVX",
    "AVX512",
    "Core",
    "ExecutionResult",
    "FrequencyGovernor",
    "PhaseCost",
    "PhaseTable",
    "PortModel",
    "SCALAR",
    "SSE",
    "SimdLevel",
    "TimingParams",
    "haswell_ports",
    "level_by_name",
    "level_by_width",
    "levels_up_to",
    "phase_cycles",
    "reissue_slots",
    "sandy_bridge_ports",
    "skylake_avx512_ports",
]
