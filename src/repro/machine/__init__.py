"""Machine assembly, platform presets, and picklable machine refs."""

from .machine import LoadedProgram, Machine, MachineSpec, RunResult
from .ref import MachineRef
from .presets import (
    PRESETS,
    dual_socket_ep_spec,
    haswell_node_spec,
    ivy_bridge_desktop_spec,
    make_machine,
    oracle_spec,
    paper_machine,
    sandy_bridge_ep_spec,
    tiny_spec,
    tiny_test_machine,
)

__all__ = [
    "LoadedProgram",
    "Machine",
    "MachineRef",
    "MachineSpec",
    "PRESETS",
    "RunResult",
    "dual_socket_ep_spec",
    "haswell_node_spec",
    "ivy_bridge_desktop_spec",
    "make_machine",
    "oracle_spec",
    "paper_machine",
    "sandy_bridge_ep_spec",
    "tiny_spec",
    "tiny_test_machine",
]
