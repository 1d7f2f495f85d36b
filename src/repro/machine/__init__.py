"""Machine assembly, platform presets, and picklable machine refs."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".machine": ("LoadedProgram", "Machine", "MachineSpec", "RunResult"),
    ".ref": ("MachineRef",),
    ".presets": ("PRESETS", "dual_socket_ep_spec", "haswell_node_spec",
                 "ivy_bridge_desktop_spec", "make_machine", "oracle_spec",
                 "paper_machine", "sandy_bridge_ep_spec", "tiny_spec",
                 "tiny_test_machine"),
})
