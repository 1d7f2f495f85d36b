"""A whole-machine state fingerprint for exactness tests.

The walk is generic — every attribute reachable from the memory
hierarchy, whatever its type — so a stateful component added later is
covered without touching this file.  Leaves split in two sections:

* ``counters`` — what accumulates across ``bust()``: the cache, IMC and
  port statistics, the core PMUs, the TSC and the trace bus clock;
* ``state`` — everything else, i.e. what ``bust()`` must put back to
  one fixed value (cache/TLB/prefetcher contents and training, the
  prefetched-line set, the last page, and every statistic that resets
  with them).

Numpy arrays are summarised by dtype, shape and a content hash; an
object reached a second time is recorded as a reference to its first
path, so aliasing is part of the fingerprint too.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.memory.cache import CacheStats
from repro.memory.dram import ImcCounters
from repro.memory.hierarchy import BatchStats
from repro.trace.bus import TraceBus

#: counter banks that bust() leaves alone
COUNTER_TYPES = (CacheStats, ImcCounters, BatchStats)

_SCALARS = (bool, int, float, str, bytes, type(None))


def _walk(obj, path, out, seen, counters):
    if isinstance(obj, _SCALARS) or isinstance(obj, np.generic):
        out[path] = obj.item() if isinstance(obj, np.generic) else obj
        return
    if isinstance(obj, TraceBus):
        return  # its clock is in the counters section, its sink is not state
    if id(obj) in seen:
        out[path] = ("ref", seen[id(obj)])
        return
    seen[id(obj)] = path
    if isinstance(obj, COUNTER_TYPES):
        for name, value in vars(obj).items():
            counters[f"{path}.{name}"] = value
        return
    if isinstance(obj, np.ndarray):
        out[path] = (obj.dtype.str, obj.shape,
                     hashlib.sha256(obj.tobytes()).hexdigest())
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _walk(item, f"{path}[{i}]", out, seen, counters)
    elif isinstance(obj, dict):
        # insertion order is state (the dict caches' recency order)
        for i, (key, value) in enumerate(obj.items()):
            out[f"{path}{{{i}}}"] = key
            _walk(value, f"{path}[{key!r}]", out, seen, counters)
    elif isinstance(obj, (set, frozenset)):
        out[path] = sorted(obj)
    elif hasattr(obj, "__dict__") or hasattr(obj, "__slots__"):
        names = sorted(getattr(obj, "__dict__", {}))
        names += [n for n in getattr(type(obj), "__slots__", ())
                  if hasattr(obj, n)]
        out[f"{path}:type"] = type(obj).__qualname__
        for name in names:
            _walk(getattr(obj, name), f"{path}.{name}", out, seen, counters)
    else:
        out[path] = type(obj).__qualname__


def machine_fingerprint(machine) -> dict:
    """``{"state": {...}, "counters": {...}}`` of one machine."""
    state: dict = {}
    counters = {
        "tsc": machine.tsc,
        "trace.now": machine.trace.now,
        "trace.cursor": machine.trace.cursor,
    }
    for core, pmu in sorted(machine._core_pmus.items()):
        for event_id, value in pmu.snapshot().items():
            counters[f"pmu{core}.{event_id}"] = value
    _walk(machine.hierarchy, "hierarchy", state, {}, counters)
    return {"state": state, "counters": counters}
