"""Replayed sessions are bit-identical to simulated ones.

``measure_kernel`` simulates only the first repetition's run A when
:mod:`repro.measure.replay` allows it; every run B and every later
repetition is replayed from recorded counter deltas and wall cycles.
Full simulation is forced here by patching the private eligibility
predicate, and every observable — the ``Measurement``, the TSC, every
counter and the whole machine-state fingerprint — must match.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine import ckernel
from repro.errors import ConfigurationError
from repro.kernels import Daxpy
from repro.kernels.base import CodegenCaps
from repro.kernels.registry import kernel_names, make_kernel
from repro.machine.presets import make_machine
from repro.measure import ColdCache, WarmCache, measure_kernel
from repro.measure import runner
from repro.measure.replay import SKIP_REASONS
from repro.obs.metrics import REGISTRY
from repro.pmu.multiplex import MultiplexedPerfSession
from repro.trace import TraceCollector
from repro.trace.bus import ListSink
from tests.machine.fingerprint import machine_fingerprint

needs_ckernel = pytest.mark.skipif(
    not ckernel.available(), reason="replay needs the C kernel's array state"
)

#: (preset, factory kwargs, measured cores)
PRESETS = {
    "tiny-2core": ("tiny", {}, (0, 1)),
    "oracle": ("oracle", {}, (0,)),
    "snb-ep-x2": ("snb-ep-x2", {"scale": 1 / 64}, (0, 8)),
}

CANDIDATE_SIZES = (64, 32, 128, 256, 16, 512)


def _size(machine, name, cores):
    kernel = make_kernel(name)
    caps = CodegenCaps.from_machine(machine)
    for n in CANDIDATE_SIZES:
        try:
            kernel.validate_n(n, caps, len(cores))
        except ConfigurationError:
            continue
        return n
    raise AssertionError(f"no small valid size for {name}")


def _observe(machine, measurement):
    doc = dataclasses.asdict(measurement)
    doc.pop("trace")
    return doc, machine_fingerprint(machine)


def _full(monkeypatch):
    monkeypatch.setattr(runner, "_skip_reason", lambda machine, proto: "engine")


@needs_ckernel
@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("protocol", ["cold", "warm"])
@pytest.mark.parametrize("name", kernel_names())
def test_replay_matches_full_simulation(monkeypatch, name, protocol, preset):
    machine_name, kwargs, cores = PRESETS[preset]
    replayed = make_machine(machine_name, **kwargs)
    simulated = make_machine(machine_name, **kwargs)
    n = _size(replayed, name, cores)
    # reps 1, 2, 3 back to back on one machine: each call also starts
    # from the state the previous one left behind
    for reps in (1, 2, 3):
        with monkeypatch.context() as patch:
            _full(patch)
            want = _observe(simulated, measure_kernel(
                simulated, make_kernel(name), n, protocol=protocol,
                cores=cores, reps=reps))
        got = _observe(replayed, measure_kernel(
            replayed, make_kernel(name), n, protocol=protocol, cores=cores,
            reps=reps))
        assert got[0] == want[0]
        assert got[1]["counters"] == want[1]["counters"]
        assert got[1]["state"] == want[1]["state"]


@needs_ckernel
@pytest.mark.parametrize("protocol", ["cold", "warm"])
def test_replay_restores_a_fast_forwarded_session(monkeypatch, protocol):
    # F4's largest daxpy on snb x0.125, every prefetcher on: each
    # session's loops skip whole periods, which move the trackers and
    # the prefetched lines the replayed sessions start from
    replayed = make_machine("snb", scale=0.125)
    simulated = make_machine("snb", scale=0.125)
    with monkeypatch.context() as patch:
        _full(patch)
        want = _observe(simulated, measure_kernel(
            simulated, Daxpy(), 983040, protocol=protocol, reps=2))
    got = _observe(replayed, measure_kernel(
        replayed, Daxpy(), 983040, protocol=protocol, reps=2))
    assert simulated.core(0).plan_stats.skipped_lines > 0
    assert got[0] == want[0]
    assert got[1]["counters"] == want[1]["counters"]
    assert got[1]["state"] == want[1]["state"]


@needs_ckernel
def test_full_simulation_is_what_the_patch_forces(monkeypatch):
    # guards the test above against comparing replay with itself
    calls = []
    monkeypatch.setattr(runner.RunLog, "replay",
                        lambda self, baseline=False: calls.append(baseline))
    _full(monkeypatch)
    measure_kernel(make_machine("tiny"), Daxpy(), 256, reps=2)
    assert calls == []


@needs_ckernel
@pytest.mark.parametrize("protocol", ["cold", "warm"])
def test_trace_records_the_first_repetition(monkeypatch, protocol):
    # the traced window is rep 1's A in both modes: same events, same
    # timestamps
    docs = []
    for force_full in (False, True):
        with monkeypatch.context() as patch:
            if force_full:
                _full(patch)
            machine = make_machine("tiny")
            m = measure_kernel(machine, Daxpy(), 512, protocol=protocol,
                               reps=3, trace=True)
        docs.append([e.to_dict() for e in m.trace.events])
    assert docs[0] == docs[1]
    assert docs[0]


# ----------------------------------------------------------------------
# every condition that rules replay out falls back and is counted
# ----------------------------------------------------------------------
def _counts():
    reps = REGISTRY.get("repro_measure_reps_total")
    skipped = REGISTRY.get("repro_measure_replay_skipped_total")
    return (
        {mode: reps.value(mode=mode) if reps else 0.0
         for mode in ("simulated", "replayed")},
        {reason: skipped.value(reason=reason) if skipped else 0.0
         for reason in SKIP_REASONS},
    )


def _measure_counted(machine, reps=3, **kwargs):
    """Measure daxpy; return the measurement and the increments of the
    rep counts and of the skip counts that moved."""
    before_reps, before_skips = _counts()
    m = measure_kernel(machine, Daxpy(), 256, reps=reps, **kwargs)
    after_reps, after_skips = _counts()
    reps_delta = {k: after_reps[k] - before_reps[k] for k in after_reps}
    skips = {k: after_skips[k] - before_skips[k]
             for k in after_skips if after_skips[k] != before_skips[k]}
    return m, reps_delta, skips


@needs_ckernel
def test_eligible_measurement_replays_and_counts_it():
    _m, reps, skips = _measure_counted(make_machine("tiny"))
    assert reps == {"simulated": 1, "replayed": 2}
    assert skips == {}


def test_reference_engine_falls_back():
    _m, reps, skips = _measure_counted(make_machine("tiny",
                                                    engine="reference"))
    assert reps == {"simulated": 3, "replayed": 0}
    assert skips == {"engine": 1}


def test_no_ckernel_falls_back(no_ckernel):
    with no_ckernel():
        _m, reps, skips = _measure_counted(make_machine("tiny"))
    assert reps == {"simulated": 3, "replayed": 0}
    assert skips == {"engine": 1}


@needs_ckernel
def test_turbo_falls_back():
    machine = make_machine("snb-ep", scale=1 / 64)
    machine.governor.enable_turbo()
    _m, reps, skips = _measure_counted(machine)
    assert reps == {"simulated": 3, "replayed": 0}
    assert skips == {"turbo": 1}


class _CustomCold(ColdCache):
    """A subclass may keep state of its own between sessions."""


@needs_ckernel
@pytest.mark.parametrize("protocol", [_CustomCold(), WarmCache(warmups=2),
                                      ColdCache(method="drop")])
def test_only_builtin_protocol_types_replay(protocol):
    _m, reps, skips = _measure_counted(make_machine("tiny"),
                                       protocol=protocol)
    if type(protocol) is _CustomCold:
        assert skips == {"protocol": 1}
        assert reps == {"simulated": 3, "replayed": 0}
    else:
        assert skips == {}
        assert reps == {"simulated": 1, "replayed": 2}


@needs_ckernel
def test_registered_session_falls_back():
    machine = make_machine("tiny")
    with MultiplexedPerfSession(machine, ["fp_256_f64"]) as session:
        _m, reps, skips = _measure_counted(machine)
    assert skips == {"sessions": 1}
    assert reps == {"simulated": 3, "replayed": 0}
    # the session saw every run of every session: 3 reps x (A + B)
    # windows of inits + buster (+ kernel in A)
    assert len(session._snapshots) == 2 + 3 * (3 + 2)


@needs_ckernel
def test_attached_sink_falls_back_and_sees_every_session():
    machine = make_machine("tiny")
    sink = ListSink()
    machine.trace.attach(sink)
    _m, reps, skips = _measure_counted(machine)
    assert skips == {"bus": 1}
    assert reps == {"simulated": 3, "replayed": 0}
    begins = [e for e in sink.events if e.name == "session:begin"]
    assert len(begins) == 6


@needs_ckernel
def test_traced_window_does_not_rule_replay_out():
    machine = make_machine("tiny")
    m, reps, skips = _measure_counted(machine, trace=TraceCollector(machine))
    assert skips == {}
    assert reps == {"simulated": 1, "replayed": 2}
    assert m.trace.measured_phases()
    assert not machine.trace.enabled
