"""Sweep points: validation at construction, and the work estimate.

A bad point must fail where it is built, not inside a worker after
dispatch.  The pool dispatches points longest first by
:meth:`SweepPoint.predicted_work`, so the estimate must order points of
one kernel and protocol by size, and charge a cold point for its buster.
"""

import pytest

from repro.errors import SweepError
from repro.machine.ref import MachineRef
from repro.sweep import SweepPoint, make_grid

pytestmark = pytest.mark.sweep

TINY = MachineRef.of("tiny")


@pytest.mark.parametrize("kwargs, message", [
    ({"protocol": "hot"}, "unknown protocol 'hot'"),
    ({"protocol": "Cold"}, "unknown protocol"),
    ({"cores": (0, 0)}, "core twice"),
    ({"cores": (1, 0, 1)}, "core twice"),
])
def test_bad_point_is_rejected_where_it_is_built(kwargs, message):
    with pytest.raises(SweepError, match=message):
        SweepPoint(machine=TINY, kernel="daxpy", n=96, **kwargs)


@pytest.mark.parametrize("kernel", ["daxpy", "dgemv-row", "dgemm-tiled"])
@pytest.mark.parametrize("protocol", ["cold", "warm"])
def test_estimate_grows_with_n(kernel, protocol):
    ref = MachineRef.of("snb-ep", scale=0.125)
    estimates = [SweepPoint(machine=ref, kernel=kernel, n=n,
                            protocol=protocol).predicted_work()
                 for n in (32, 64, 128, 256)]
    assert estimates == sorted(estimates)
    assert len(set(estimates)) == len(estimates)


def test_cold_point_pays_for_its_buster_at_a_tiny_n():
    cold, warm = (SweepPoint(machine=TINY, kernel="daxpy", n=32,
                             protocol=protocol).predicted_work()
                  for protocol in ("cold", "warm"))
    assert cold > warm


def test_the_f4_grids_largest_points_go_first():
    # they come last in plan order, and set the pool's makespan
    plan = list(make_grid("f4", MachineRef.of("snb-ep", scale=0.125)))
    largest = max(p.n for p in plan)
    first = sorted(plan, key=lambda p: -p.predicted_work())[:2]
    assert [(p.n, p.protocol) for p in first] == [(largest, "warm"),
                                                  (largest, "cold")]
