"""Core model: SIMD levels, execution-port throughput, frequency
governor, cycle-cost timing model, and the program interpreter."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core": ("Core", "ExecutionResult"),
    ".frequency": ("FrequencyGovernor",),
    ".port_model": ("PortModel", "haswell_ports", "sandy_bridge_ports",
                    "skylake_avx512_ports"),
    ".simd": ("ALL_LEVELS", "AVX", "AVX512", "SCALAR", "SSE", "SimdLevel",
              "level_by_name", "level_by_width", "levels_up_to"),
    ".timing": ("PhaseCost", "PhaseTable", "TimingParams", "phase_cycles",
                "reissue_slots"),
})
