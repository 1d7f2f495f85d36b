"""Memory-traffic (Q) measurement: bytes from the IMC CAS counters.

Q is the hard quantity of the methodology: cache-level events
undercount (prefetchers fetch behind their back), so the paper counts
raw 64-byte CAS transfers at the memory controller.  The controller
sees the whole platform, hence the caller must apply the two-run
subtraction (:mod:`repro.measure.runner` does).
"""

from __future__ import annotations

from typing import Tuple

from ..pmu.perf import PerfSession
from ..units import CACHE_LINE_BYTES

#: the event set a traffic measurement programs
TRAFFIC_EVENTS: Tuple[str, ...] = ("imc_cas_reads", "imc_cas_writes")


def bytes_from_session(session: PerfSession) -> float:
    """Total DRAM bytes moved during a closed session window."""
    lines = session.uncore_delta("imc_cas_reads") + session.uncore_delta(
        "imc_cas_writes"
    )
    return float(lines * CACHE_LINE_BYTES)
