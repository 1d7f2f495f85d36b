"""The traffic noise floor: the tolerance of the A/B subtraction.

The simulated IMC adds ``int(rate x TSC)`` background lines per node at
each read, so one session's noise is a difference of two floors and
A - B can come out below zero although A's window is the longer one.
``UncorePmu.rounding_lines`` bounds that loss (one line per counter per
node); a measurement within the bound is reported as below the noise
floor, and anything further below zero still raises.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.errors import MeasurementError
from repro.kernels import make_kernel
from repro.machine.presets import make_machine, tiny_test_machine
from repro.measure import measure_kernel
from repro.measure.protocol import ColdCache
from repro.measure.runner import NOISE_FLOOR_BYTES, Measurement
from repro.pmu.uncore import UncorePmu
from repro.sweep.serialize import (
    measurement_to_payload,
    payload_to_measurement,
)


def _measurement(traffic: float, floor: float = NOISE_FLOOR_BYTES):
    return Measurement(
        kernel="dgemm-ikj", n=32, threads=1, protocol="warm",
        machine="snb-ep", work_flops=65536.0, traffic_bytes=traffic,
        llc_bytes=0.0, runtime_seconds=1e-5, true_flops=65536,
        compulsory_bytes=32768, reps=2, noise_floor_bytes=floor,
    )


def _idle_uncore(nodes: int) -> UncorePmu:
    idle = SimpleNamespace(counters=SimpleNamespace(cas_reads=0,
                                                    cas_writes=0))
    return UncorePmu([idle] * nodes)


@pytest.mark.parametrize("nodes", [1, 2])
def test_rounding_loses_at_most_one_line_per_counter_per_node(nodes):
    uncore = _idle_uncore(nodes)
    assert uncore.rounding_lines == nodes
    rng = random.Random(nodes)
    worst = 0
    for _ in range(4000):
        d_b = rng.uniform(0, 2e6)
        d_a = d_b + rng.uniform(0, 2e5)
        s_a, s_b = rng.uniform(0, 1e8), rng.uniform(0, 1e8)
        for event in ("imc_cas_reads", "imc_cas_writes"):
            a = uncore.read(event, s_a + d_a) - uncore.read(event, s_a)
            b = uncore.read(event, s_b + d_b) - uncore.read(event, s_b)
            worst = min(worst, a - b)
    # the bound holds and is reached
    assert worst == -uncore.rounding_lines


def test_noise_floor_scales_with_dram_nodes():
    daxpy = make_kernel("daxpy")
    one = measure_kernel(tiny_test_machine(), daxpy, 256, reps=1)
    assert one.noise_floor_bytes == NOISE_FLOOR_BYTES == 128
    two = measure_kernel(make_machine("snb-ep-x2", scale=0.125), daxpy,
                         256, protocol="warm", reps=1)
    assert two.noise_floor_bytes == 2 * NOISE_FLOOR_BYTES


def test_traffic_within_the_floor_is_reported_not_raised():
    m = _measurement(-NOISE_FLOOR_BYTES)
    assert m.below_noise_floor
    assert m.intensity == m.true_flops / 64.0
    assert not _measurement(NOISE_FLOOR_BYTES).below_noise_floor


def test_traffic_below_the_floor_still_raises():
    with pytest.raises(MeasurementError, match="subtraction is broken"):
        _measurement(-NOISE_FLOOR_BYTES - 64.0).intensity
    # a two-node machine's floor is twice as deep, and no deeper
    assert _measurement(-256.0, floor=256.0).intensity > 0
    with pytest.raises(MeasurementError):
        _measurement(-320.0, floor=256.0).intensity


def test_floor_survives_the_payload_round_trip():
    one = _measurement(0.0)
    assert "noise_floor_bytes" not in measurement_to_payload(one)
    two = _measurement(0.0, floor=256.0)
    assert payload_to_measurement(
        measurement_to_payload(two)).noise_floor_bytes == 256.0


def test_cache_resident_point_at_official_scale_measures():
    # the F6 point that used to stop with "negative measured traffic
    # (-96.0)": its two reps lose one and two lines to rounding
    machine = make_machine("snb", scale=0.125)
    m = measure_kernel(machine, make_kernel("dgemm-ikj"), 32,
                       protocol="warm", reps=2)
    assert m.traffic_bytes == -96.0
    assert m.below_noise_floor
    assert m.intensity == m.true_flops / 64.0


class _KernelsInBaseline(ColdCache):
    """A broken protocol: every baseline (second) preparation also runs
    the measured kernel twice from cold caches, so B holds twice the
    kernel's traffic and A - B is about minus one kernel's."""

    def __init__(self):
        super().__init__(method="drop")
        self.calls = 0

    def prepare(self, machine, run_kernel):
        super().prepare(machine, run_kernel)
        self.calls += 1
        if self.calls % 2 == 0:
            for _ in range(2):
                run_kernel()
                super().prepare(machine, run_kernel)


def test_broken_subtraction_raises_end_to_end():
    m = measure_kernel(tiny_test_machine(), make_kernel("daxpy"), 4096,
                       protocol=_KernelsInBaseline(), reps=1)
    assert m.traffic_bytes < -m.compulsory_bytes / 2
    with pytest.raises(MeasurementError, match="subtraction is broken"):
        m.intensity
