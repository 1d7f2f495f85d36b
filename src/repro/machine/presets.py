"""Machine presets modelled on the paper's platforms.

The ISPASS'14 measurements run on Sandy Bridge-class Xeons and a
desktop Ivy Bridge; we provide analogous presets plus a Haswell-class
FMA machine for contrast and a two-socket NUMA variant.

A preset is a function returning a :class:`MachineSpec`, the
platform's static description: reading a cache capacity or a core
count never builds a machine.  :func:`make_machine` (through
:class:`MachineRef`) turns a registered preset into a live
:class:`Machine`.

Every datasheet preset accepts a ``scale`` factor that shrinks the
*cache capacities* (never the bandwidths or latencies): a 1/8-scale
machine reaches the DRAM-resident regime at 1/8 the working-set size,
which keeps full experiment sweeps fast while preserving every shape
the paper reports.  ``scale=1.0`` reproduces the datasheet geometry.
The ``tiny`` and ``oracle`` test geometries are fixed and take no
scale.
"""

from __future__ import annotations

from ..cpu.port_model import haswell_ports, sandy_bridge_ports
from ..errors import ConfigurationError
from ..memory.cache import CacheConfig
from ..memory.dram import DramConfig
from ..memory.hierarchy import HierarchyConfig
from ..memory.numa import NumaConfig, Topology
from ..units import KIB, MIB
from .machine import Machine, MachineSpec
from .ref import MachineRef


def _hierarchy(l3_size: int, l3_assoc: int, dram: DramConfig,
               scale: float) -> HierarchyConfig:
    if not 0 < scale <= 1:
        raise ConfigurationError("scale must be in (0, 1]")
    l1 = CacheConfig("L1d", 32 * KIB, assoc=8, latency_cycles=4,
                     bytes_per_cycle=32.0)
    l2 = CacheConfig("L2", 256 * KIB, assoc=8, latency_cycles=12,
                     bytes_per_cycle=32.0)
    l3 = CacheConfig("L3", l3_size, assoc=l3_assoc, latency_cycles=36,
                     bytes_per_cycle=16.0)
    if scale != 1.0:
        l1 = l1.scaled(scale)
        l2 = l2.scaled(scale)
        l3 = l3.scaled(scale)
    return HierarchyConfig(l1=l1, l2=l2, l3=l3, dram=dram, numa=NumaConfig())


def sandy_bridge_ep_spec(scale: float = 1.0, sockets: int = 1) -> MachineSpec:
    """Xeon E5-2680-class Sandy Bridge-EP: 8 cores/socket @ 2.7 GHz,
    AVX without FMA, 4 DDR3-1600 channels (51.2 GB/s) per socket."""
    base_hz = 2.7e9
    dram = DramConfig(
        channels=4,
        bytes_per_cycle_total=51.2e9 / base_hz,
        per_core_bytes_per_cycle=13.0e9 / base_hz,
        latency_cycles=220,
    )
    return MachineSpec(
        name=f"snb-ep{f'x{sockets}' if sockets > 1 else ''}"
             + (f"@{scale:g}" if scale != 1.0 else ""),
        topology=Topology(sockets=sockets, cores_per_socket=8),
        ports=sandy_bridge_ports(),
        hierarchy=_hierarchy(20 * MIB, 20, dram, scale),
        base_hz=base_hz,
        turbo_steps=(3.5e9, 3.4e9, 3.3e9, 3.2e9, 3.1e9, 3.0e9, 2.9e9, 2.8e9),
    )


def dual_socket_ep_spec(scale: float = 1.0) -> MachineSpec:
    """Two-socket Sandy Bridge-EP (the NUMA platform)."""
    return sandy_bridge_ep_spec(scale=scale, sockets=2)


def ivy_bridge_desktop_spec(scale: float = 1.0) -> MachineSpec:
    """Core i5-3570-class Ivy Bridge: 4 cores @ 3.4 GHz, 2 channels."""
    base_hz = 3.4e9
    dram = DramConfig(
        channels=2,
        bytes_per_cycle_total=25.6e9 / base_hz,
        per_core_bytes_per_cycle=14.0e9 / base_hz,
        latency_cycles=200,
    )
    return MachineSpec(
        name="ivb-desktop" + (f"@{scale:g}" if scale != 1.0 else ""),
        topology=Topology(sockets=1, cores_per_socket=4),
        ports=sandy_bridge_ports(),  # IVB keeps the SNB FP structure
        hierarchy=_hierarchy(6 * MIB, 12, dram, scale),
        base_hz=base_hz,
        turbo_steps=(3.8e9, 3.7e9, 3.6e9, 3.6e9),
    )


def haswell_node_spec(scale: float = 1.0) -> MachineSpec:
    """Xeon E5 v3-class Haswell: 8 cores @ 2.6 GHz with dual FMA ports
    (the 'what changes with FMA' contrast machine)."""
    base_hz = 2.6e9
    dram = DramConfig(
        channels=4,
        bytes_per_cycle_total=59.7e9 / base_hz,
        per_core_bytes_per_cycle=15.0e9 / base_hz,
        latency_cycles=230,
    )
    return MachineSpec(
        name="hsw-ep" + (f"@{scale:g}" if scale != 1.0 else ""),
        topology=Topology(sockets=1, cores_per_socket=8),
        ports=haswell_ports(),
        hierarchy=_hierarchy(24 * MIB, 24, dram, scale),
        base_hz=base_hz,
        turbo_steps=(3.3e9, 3.3e9, 3.2e9, 3.1e9, 3.0e9, 2.9e9, 2.8e9, 2.7e9),
    )


def tiny_spec() -> MachineSpec:
    """A deliberately small 2-core machine for fast unit tests: every
    cache regime is reachable with kilobyte-sized working sets."""
    dram = DramConfig(
        channels=1,
        bytes_per_cycle_total=8.0,
        per_core_bytes_per_cycle=6.0,
        latency_cycles=100,
    )
    hierarchy = HierarchyConfig(
        l1=CacheConfig("L1d", 1 * KIB, assoc=2, latency_cycles=4,
                       bytes_per_cycle=32.0),
        l2=CacheConfig("L2", 4 * KIB, assoc=4, latency_cycles=12,
                       bytes_per_cycle=32.0),
        l3=CacheConfig("L3", 16 * KIB, assoc=8, latency_cycles=30,
                       bytes_per_cycle=16.0),
        dram=dram,
        numa=NumaConfig(),
    )
    return MachineSpec(
        name="tiny",
        topology=Topology(sockets=1, cores_per_socket=2),
        ports=sandy_bridge_ports(),
        hierarchy=hierarchy,
        base_hz=1.0e9,
        turbo_steps=(1.5e9, 1.2e9),
        noise_lines_per_megacycle=0.0,
    )


def oracle_spec() -> MachineSpec:
    """Single-core machine with uniformly large caches and zero noise.

    Every level is 256 KiB/16-way (256 sets, power of two), so any
    kernel footprint up to a quarter of a level is conflict-free
    everywhere and the infinite-cache analytic model of
    :mod:`repro.oracle.analytic` is exact.  Registered as the
    ``oracle`` preset so sweeps and ``repro.analyze`` can target it
    through a :class:`~repro.machine.ref.MachineRef`.
    """
    base_hz = 2.7e9
    dram = DramConfig(
        channels=4,
        bytes_per_cycle_total=32.0,
        per_core_bytes_per_cycle=16.0,
        latency_cycles=220,
    )
    mk = lambda name, lat, bpc: CacheConfig(  # noqa: E731
        name, 256 * KIB, assoc=16, latency_cycles=lat, bytes_per_cycle=bpc
    )
    return MachineSpec(
        name="oracle",
        topology=Topology(sockets=1, cores_per_socket=1),
        ports=sandy_bridge_ports(),
        hierarchy=HierarchyConfig(
            l1=mk("L1d", 4, 32.0),
            l2=mk("L2", 12, 32.0),
            l3=mk("L3", 36, 16.0),
            dram=dram,
            numa=NumaConfig(),
        ),
        base_hz=base_hz,
        noise_lines_per_megacycle=0.0,
    )


#: preset registry used by the CLI and experiments: name -> spec function
PRESETS = {
    "snb-ep": sandy_bridge_ep_spec,
    "snb": sandy_bridge_ep_spec,          # shorthand alias
    "snb-ep-x2": dual_socket_ep_spec,
    "ivb-desktop": ivy_bridge_desktop_spec,
    "hsw-ep": haswell_node_spec,
    "tiny": tiny_spec,
    "oracle": oracle_spec,
}


def make_machine(name: str, scale: float = 1.0,
                 engine: str = "fast") -> Machine:
    """Instantiate a preset by registry name (``scale`` is ignored by
    the fixed-geometry presets)."""
    return MachineRef.named(name, scale, engine).build()


def tiny_test_machine(engine: str = "fast") -> Machine:
    """The ``tiny`` preset's machine (see :func:`tiny_spec`)."""
    return make_machine("tiny", engine=engine)


def paper_machine(scale: float = 0.125, engine: str = "fast") -> Machine:
    """The default experiment platform: a 1/8-scale Sandy Bridge-EP.

    Cache capacities are scaled down so the DRAM-resident regime starts
    around a 400 KiB working set instead of 3 MiB+, keeping full
    table/figure sweeps fast; bandwidths, latencies and port structure
    are unscaled, so every measured *shape* matches the full machine.
    """
    return make_machine("snb-ep", scale=scale, engine=engine)
