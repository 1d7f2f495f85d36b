"""Work (W) measurement: flops from the FP instruction counters.

The paper derives flops by multiplying each FP event by its vector
width (lanes).  FMA needs no special factor because a retired FMA bumps
the counter twice — the behaviour the paper verifies with a hand-
written FMA-vs-ADD microbenchmark (reproduced in our test suite).
"""

from __future__ import annotations

from typing import Tuple

from ..pmu.events import FP_EVENT_LANES_F32, FP_EVENT_LANES_F64
from ..pmu.perf import PerfSession

#: the event set a work measurement programs (double precision)
WORK_EVENTS_F64: Tuple[str, ...] = tuple(e for e, _ in FP_EVENT_LANES_F64)
WORK_EVENTS_F32: Tuple[str, ...] = tuple(e for e, _ in FP_EVENT_LANES_F32)
WORK_EVENTS: Tuple[str, ...] = WORK_EVENTS_F64 + WORK_EVENTS_F32


def flops_from_session(session: PerfSession) -> float:
    """Counted flops over a closed session window (all monitored cores)."""
    total = 0.0
    for event_id, lanes in FP_EVENT_LANES_F64 + FP_EVENT_LANES_F32:
        if event_id in session.core_events:
            total += lanes * session.core_delta(event_id)
    return total
