"""Uncore (IMC) counter access with platform background noise.

The IMC counters observe *everything* crossing a node's memory
controller — the evaluated kernel, other processes, the OS.  The paper
handles this by measuring a setup-only run and subtracting.  To keep
that protocol honest the simulated uncore injects a small deterministic
background-traffic rate proportional to elapsed TSC cycles, so naive
single-run measurements are visibly polluted while the subtraction
protocol recovers the kernel's true traffic.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import PmuError
from ..memory.dram import DramNode
from .events import SCOPE_UNCORE, event


class UncorePmu:
    """IMC counter view over the machine's DRAM nodes."""

    def __init__(self, dram_nodes: List[DramNode],
                 noise_lines_per_megacycle: float = 20.0,
                 noise_read_fraction: float = 0.65) -> None:
        if noise_lines_per_megacycle < 0:
            raise PmuError("background noise rate cannot be negative")
        if not 0.0 <= noise_read_fraction <= 1.0:
            raise PmuError("noise read fraction must be within [0, 1]")
        self._nodes = dram_nodes
        self.noise_lines_per_megacycle = noise_lines_per_megacycle
        self._noise_read_fraction = noise_read_fraction

    def _noise_lines(self, tsc: float, reads: bool) -> int:
        total = self.noise_lines_per_megacycle * tsc / 1e6
        share = self._noise_read_fraction if reads else 1.0 - self._noise_read_fraction
        return int(total * share)

    @property
    def rounding_lines(self) -> int:
        """Most lines the noise model's rounding can take off one
        counter's A - B session delta.

        A read at TSC ``t`` adds ``int(k * t)`` noise lines per node
        (``k`` the counter's noise rate per cycle), so a session window
        ``[s, s + d]`` adds ``int(k*s + k*d) - int(k*s)`` lines: either
        ``int(k*d)`` or one more.  Session A's window is at least as
        long as B's, so ``int(k*d_A) >= int(k*d_B)`` and A - B can lose
        at most the one line B may have gained, once per node because a
        whole-platform read multiplies one node's floored count.  The
        kernel's own traffic only adds to A.
        """
        return self.node_count

    def read(self, event_id: str, tsc: float, node: Optional[int] = None) -> int:
        """Counter value as software would read it at time ``tsc``.

        ``node=None`` sums across nodes (a whole-platform read).
        """
        if event(event_id).scope != SCOPE_UNCORE:
            raise PmuError(f"{event_id} is not an uncore event")
        nodes = self._nodes if node is None else [self._node(node)]
        if event_id == "imc_cas_reads":
            raw = sum(n.counters.cas_reads for n in nodes)
            noise = self._noise_lines(tsc, reads=True) * len(nodes)
        else:
            raw = sum(n.counters.cas_writes for n in nodes)
            noise = self._noise_lines(tsc, reads=False) * len(nodes)
        return raw + noise

    def _node(self, node: int) -> DramNode:
        if not 0 <= node < len(self._nodes):
            raise PmuError(f"no DRAM node {node}")
        return self._nodes[node]

    @property
    def node_count(self) -> int:
        return len(self._nodes)
