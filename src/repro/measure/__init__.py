"""Measurement methodology: protocols, W/Q/T drivers, and the runner
implementing the paper's two-run subtraction discipline."""

from .explain import ExecutionReport, explain_kernel
from .protocol import ColdCache, Protocol, WarmCache, make_protocol
from .runner import Measurement, build_init_program, measure_kernel, measure_sweep
from .stats import Summary, relative_error, summarize
from .traffic import TRAFFIC_EVENTS, bytes_from_session
from .work import (
    WORK_EVENTS,
    WORK_EVENTS_F32,
    WORK_EVENTS_F64,
    flops_from_session,
)

__all__ = [
    "ColdCache",
    "ExecutionReport",
    "Measurement",
    "Protocol",
    "Summary",
    "TRAFFIC_EVENTS",
    "WORK_EVENTS",
    "WORK_EVENTS_F32",
    "WORK_EVENTS_F64",
    "WarmCache",
    "build_init_program",
    "bytes_from_session",
    "explain_kernel",
    "flops_from_session",
    "make_protocol",
    "measure_kernel",
    "measure_sweep",
    "relative_error",
    "summarize",
]
