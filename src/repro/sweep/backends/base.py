"""The sweep execution backend protocol.

The executor used to hard-wire two dispatch paths (in-process serial
and a ``ProcessPoolExecutor`` fan-out) into ``run_plan``.  The backend
protocol extracts that choice behind three small types:

* :class:`WorkItem` — one pending point (plan index, the picklable
  :class:`~repro.sweep.plan.SweepPoint`, and its
  :class:`~repro.obs.remote.TraceContext`);
* :class:`PointResult` — one completed point: the serialised payload
  plus dispatch/latency observability fields;
* :class:`SweepBackend` — ``submit(items) -> iterator of PointResult``
  (completion order, not plan order), ``stats()``, ``close()``.

``run_plan`` speaks *only* to this protocol: it probes the cache,
hands the misses to the backend, and folds results back into plan
order.  Because every backend funnels points through the same
:func:`~repro.sweep.executor.simulate_point` → serialised-payload
path, serial and local-pool execution are bit-identical by
construction — ``tests/sweep/test_backends.py`` checksums it.

Backends are context managers and reusable: ``submit`` may be called
any number of times before ``close``.  ``run_plan`` builds and closes a
backend for every run unless its caller lends one (the service lends
none, so each of its jobs gets its own).  A backend instance is *not*
safe for concurrent ``submit`` calls unless its class says otherwise.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, Sequence

from ...obs.remote import TraceContext
from ..plan import SweepPoint

__all__ = ["PointResult", "SweepBackend", "WorkItem"]


@dataclass(frozen=True)
class WorkItem:
    """One pending sweep point, addressed by its plan index."""

    index: int
    point: SweepPoint
    ctx: TraceContext


@dataclass
class PointResult:
    """One completed point: the payload plus dispatch observability.

    ``payload`` is exactly what :func:`simulate_point` returned —
    including the ``telemetry`` section when collection was on; the
    executor pops that before the payload can reach the result cache.
    ``submit_ns`` is the dispatch instant (``time.perf_counter_ns``,
    comparable across processes on Linux) feeding the causal flow
    links in the merged flame view; ``elapsed_seconds`` is
    submit-to-completion latency for the point-latency histogram.
    """

    index: int
    payload: dict
    submit_ns: int
    elapsed_seconds: float


@dataclass
class BackendStats:
    """Counters every backend keeps; ``stats()`` returns the dict."""

    dispatched: int = 0
    completed: int = 0
    worker_deaths: int = 0
    workers_spawned: int = 0

    def to_dict(self) -> dict:
        return {
            "dispatched": self.dispatched,
            "completed": self.completed,
            "worker_deaths": self.worker_deaths,
            "workers_spawned": self.workers_spawned,
        }


class SweepBackend(ABC):
    """Executes sweep work items and streams results back.

    Subclasses set ``name`` (reported as ``SweepRun.backend``) and
    ``parallel`` (whether points run outside the calling process — the
    executor uses it as the default for distributed-telemetry
    collection).
    """

    name: str = "?"
    parallel: bool = False

    def __init__(self) -> None:
        self._stats = BackendStats()
        self.closed = False

    @abstractmethod
    def submit(self, items: Sequence[WorkItem]) -> Iterator[PointResult]:
        """Execute ``items``; yield results in *completion* order.

        Exactly one result per item unless an item's simulation fails,
        in which case the iterator raises (``SweepPointError`` for a
        point failure, ``SweepError`` for an executor-level failure).
        """

    def stats(self) -> dict:
        """Backend counters (dispatch/completion/worker-death totals)."""
        doc = {"backend": self.name, "parallel": self.parallel}
        doc.update(self._stats.to_dict())
        return doc

    def close(self) -> None:
        """Release workers/pools; idempotent."""
        self.closed = True

    def __enter__(self) -> "SweepBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
