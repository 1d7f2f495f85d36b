"""Exact replay of repeated measurement sessions.

The simulator is deterministic, and :meth:`Machine.bust_caches` puts
everything a run reads back to one fixed state: the caches, the TLBs,
the prefetcher training, the prefetched-line set and the last page.
With the clock pinned, the TSC is the only input that differs between
the runner's sessions, and it reaches the counters only through the
uncore's background-noise term, which :class:`~repro.pmu.uncore.
UncorePmu` computes at each read.  So once the first repetition's
session A has run:

* session B (inits + prepare) is exactly the prefix of A that ends
  where the measured kernel starts, from the same post-bust state;
* every later repetition repeats A and B.

:class:`RunLog` records, for each run of that first session A, the
counter deltas it caused and its wall cycles, and copies the state
``bust()`` resets at the end of the prepare prefix.  Replaying a run
sets the trace bus's ``now``, adds its deltas to every counter the
machine exposes (core PMUs, IMC, cache and port statistics) and its
cycles to the TSC: the same integer sums and the same float additions
in the same order as simulating it, so the ``PerfSession`` windows
around a replay read bit-identical values.  :meth:`RunLog.restore`
then puts the copied state back in place, which leaves the machine
exactly as simulating the last session B would.

Replay is exact only where that premise holds; :func:`_skip_reason`
names the first condition that rules it out, and the runner then
simulates every session in full.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .protocol import ColdCache, WarmCache

#: why a measurement simulated every session in full, in check order
SKIP_REASONS = ("engine", "turbo", "protocol", "sessions", "bus")


def _skip_reason(machine, proto) -> Optional[str]:
    """The first condition that rules out replay, or ``None``.

    * ``engine`` — the machine was not built on the C kernel's array
      state (reference engine, no kernel, or a non-LRU hierarchy);
      only the array state can be copied and restored;
    * ``turbo`` — the clock depends on the active-core count;
    * ``protocol`` — anything but the built-in cold and warm protocols
      may keep state of its own between sessions;
    * ``sessions`` — a registered (multiplexed) session observes every
      run boundary;
    * ``bus`` — a sink on the trace bus would miss the replayed events.
    """
    if not machine.hierarchy.array_mode:
        return "engine"
    if machine.governor.turbo_enabled:
        return "turbo"
    if type(proto) not in (ColdCache, WarmCache):
        return "protocol"
    if machine._sessions:
        return "sessions"
    if machine.trace.enabled:
        return "bus"
    return None


# ----------------------------------------------------------------------
# counters: everything that accumulates across bust()
# ----------------------------------------------------------------------
def _banks(machine) -> list:
    """The machine's counter banks: dataclasses of integer counts that
    ``bust()`` never resets (per-cache stats, IMC CAS counts, per-port
    batch totals)."""
    hier = machine.hierarchy
    return ([cache.stats for cache in hier.l1 + hier.l2 + hier.l3]
            + [node.counters for node in hier.dram]
            + [port.totals for port in hier._ports.values()])


def _read(machine) -> Tuple[dict, dict]:
    banks = {id(bank): (bank, dict(vars(bank))) for bank in _banks(machine)}
    pmus = {core: (pmu, pmu.snapshot())
            for core, pmu in machine._core_pmus.items()}
    return banks, pmus


def _diff(before: Tuple[dict, dict], after: Tuple[dict, dict]) -> tuple:
    """Per-bank ``(name, delta)`` lists and per-PMU ``(event, delta)``
    lists between two reads; PMU events first counted in between keep
    their zero deltas, so replay creates them too."""
    old_banks, old_pmus = before
    new_banks, new_pmus = after
    banks = []
    for key, (bank, values) in new_banks.items():
        old = old_banks[key][1] if key in old_banks else {}
        deltas = [(name, value - old.get(name, 0))
                  for name, value in values.items()
                  if value != old.get(name, 0)]
        if deltas:
            banks.append((bank, deltas))
    pmus = []
    for core, (pmu, values) in new_pmus.items():
        old = old_pmus[core][1] if core in old_pmus else {}
        deltas = [(event_id, value - old.get(event_id, 0))
                  for event_id, value in values.items()
                  if event_id not in old or value != old[event_id]]
        if deltas:
            pmus.append((pmu, deltas))
    return banks, pmus


# ----------------------------------------------------------------------
# state: everything bust() resets
# ----------------------------------------------------------------------
class _ResetState:
    """A copy of the state ``bust()`` resets, restorable in place.

    The C kernel's context holds raw pointers into the cache, TLB and
    prefetcher arrays, so those are copied back into the live arrays;
    the prefetched-line table is the one structure the datapath
    re-points before every call, and gets its own exact restore.
    """

    def __init__(self, hierarchy) -> None:
        caches = hierarchy.l1 + hierarchy.l2 + hierarchy.l3
        engines = [engine for engines in hierarchy._prefetchers
                   for engine in engines]
        ports = list(hierarchy._ports.values())
        tlbs = [port.tlb for port in ports]
        self._arrays = [(value, value.copy())
                        for owner in caches + engines + tlbs
                        for value in vars(owner).values()
                        if isinstance(value, np.ndarray)]
        self._attrs = (
            [(cache, {"_resident": cache._resident}) for cache in caches]
            + [(owner.stats, dict(vars(owner.stats)))
               for owner in engines + tlbs]
            + [(port, {"_last_page": port._last_page}) for port in ports]
        )
        self._prefetched = [(port._prefetched, port._prefetched.snapshot())
                            for port in ports]

    def restore(self) -> None:
        for live, saved in self._arrays:
            np.copyto(live, saved)
        for owner, values in self._attrs:
            vars(owner).update(values)
        for table, saved in self._prefetched:
            table.restore(saved)


class RunLog:
    """Records session A's runs once; replays them and their prefix.

    Use as a context manager around the first session A (it registers
    as a run-boundary observer), call :meth:`mark_prefix` where the
    measured kernel starts, then :meth:`replay` the measured session or
    its prefix as often as needed and :meth:`restore` once at the end.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        #: ``(wall_cycles, bank_deltas, pmu_deltas)`` per recorded run
        self._runs: List[tuple] = []
        self._prefix = 0
        self._state: Optional[_ResetState] = None
        self._last = None

    def __enter__(self) -> "RunLog":
        self._last = _read(self.machine)
        self.machine.register_session(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.machine.unregister_session(self)

    def on_run_boundary(self, run) -> None:
        now = _read(self.machine)
        self._runs.append((run.cycles,) + _diff(self._last, now))
        self._last = now

    def mark_prefix(self) -> None:
        """End of the baseline prefix: remember the run count and copy
        the state a simulated session B would leave behind."""
        self._prefix = len(self._runs)
        self._state = _ResetState(self.machine.hierarchy)

    def replay(self, baseline: bool = False) -> None:
        """Re-apply the recorded runs (only the prefix for session B)."""
        machine = self.machine
        for cycles, banks, pmus in (self._runs[:self._prefix] if baseline
                                    else self._runs):
            machine.trace.now = machine.tsc
            for bank, deltas in banks:
                values = vars(bank)
                for name, delta in deltas:
                    values[name] += delta
            for pmu, deltas in pmus:
                for event_id, delta in deltas:
                    pmu.add(event_id, delta)
            machine.advance_tsc(cycles)

    def restore(self) -> None:
        """Leave the machine as simulating the last session B would."""
        self._state.restore()
