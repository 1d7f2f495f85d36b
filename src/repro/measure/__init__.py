"""Measurement methodology: protocols, W/Q/T drivers, and the runner
implementing the paper's two-run subtraction discipline."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".explain": ("ExecutionReport", "explain_kernel"),
    ".protocol": ("ColdCache", "Protocol", "WarmCache", "make_protocol"),
    ".runner": ("Measurement", "build_init_program", "measure_kernel",
                "measure_sweep"),
    ".stats": ("Summary", "relative_error", "summarize"),
    ".traffic": ("TRAFFIC_EVENTS", "bytes_from_session"),
    ".work": ("WORK_EVENTS", "WORK_EVENTS_F32", "WORK_EVENTS_F64",
              "flops_from_session"),
})
