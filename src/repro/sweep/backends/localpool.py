"""Local process-pool backend: the executor's classic parallel path.

Fans work items over a ``ProcessPoolExecutor`` with a bounded backlog
(:data:`BACKLOG_PER_WORKER` in-flight futures per worker, so huge plans
don't pickle the whole grid into the queue up front).  All the
distributed-telemetry plumbing from the monolithic executor is
preserved: each dispatch notes a flight-recorder breadcrumb and records
its ``submit_ns`` for the flame view's causal flow links, the
queue-depth gauge tracks in-flight futures, and a worker death dumps
the parent's flight-recorder ring with the reprs of every in-flight
point before raising :class:`~repro.errors.SweepError`.

Items go out longest first, by :meth:`~repro.sweep.plan.SweepPoint.
predicted_work` (ties keep their submission order): with the biggest
points dispatched last, one worker would still be simulating one while
the others sat idle.  This is longest-processing-time list scheduling;
results still stream back in completion order.

The pool is created lazily on the first ``submit`` and kept alive
until ``close``, so repeated submits to one backend reuse warm workers.
``run_plan`` closes the backend it builds when its run ends: only a
caller that lends one backend to several runs keeps its pool warm
across them.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
# the pool imports these when it starts; loading them with the backend
# keeps a run's time free of imports
from multiprocessing import popen_fork, synchronize  # noqa: F401
from typing import Dict, Iterator, Optional, Sequence

from ...errors import SweepError
from ...obs import remote
from ...obs.metrics import REGISTRY
from ..executor import simulate_point
from .base import PointResult, SweepBackend, WorkItem

__all__ = ["LocalPoolBackend"]

#: cap on in-flight futures per worker
BACKLOG_PER_WORKER = 4

#: gauge name shared with the live dashboard (kept from the
#: pre-backend executor so existing dashboards/tests keep reading it)
QUEUE_DEPTH_GAUGE = "repro_sweep_executor_queue_depth"


def _queue_depth_gauge():
    return REGISTRY.gauge(
        QUEUE_DEPTH_GAUGE,
        "Futures in flight in the sweep process pool",
    )


class LocalPoolBackend(SweepBackend):
    """Fan items over a persistent local ``ProcessPoolExecutor``."""

    name = "pool"
    parallel = True

    def __init__(self, jobs: int) -> None:
        super().__init__()
        if jobs < 1:
            raise SweepError(f"pool backend needs jobs >= 1, got {jobs}")
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            if self.closed:
                raise SweepError("pool backend already closed")
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            self._stats.workers_spawned += self.jobs
        return self._pool

    def submit(self, items: Sequence[WorkItem]) -> Iterator[PointResult]:
        pool = self._ensure_pool()
        depth = _queue_depth_gauge()
        backlog = min(self.jobs, max(len(items), 1)) * BACKLOG_PER_WORKER
        queue = iter(sorted(items,
                            key=lambda item: -item.point.predicted_work()))
        in_flight: Dict[object, WorkItem] = {}
        submitted: Dict[object, float] = {}
        dispatch_ns: Dict[object, int] = {}

        def dispatch(item: WorkItem) -> None:
            future = pool.submit(simulate_point, item.point, item.ctx)
            dispatch_ns[future] = time.perf_counter_ns()
            remote.FLIGHT.note(
                "dispatch", f"{item.point.kernel}:{item.point.n}",
                index=item.index, run=item.ctx.run_id,
            )
            in_flight[future] = item
            submitted[future] = time.perf_counter()
            self._stats.dispatched += 1
            depth.set(len(in_flight))

        def broken_pool(first: WorkItem) -> SweepError:
            self._stats.worker_deaths += 1
            inflight = {first.index: first}
            inflight.update((i.index, i) for i in in_flight.values())
            ordered = [inflight[idx] for idx in sorted(inflight)]
            labels = [f"{i.point.kernel}:{i.point.n}" for i in ordered]
            dump = remote.FLIGHT.dump(
                "worker-death", point=repr(first.point),
                in_flight=[repr(i.point) for i in ordered],
            )
            return SweepError(
                f"sweep worker died; in-flight point(s): "
                f"{', '.join(labels)} [flight-recorder dump: {dump}]"
            )

        try:
            for item in queue:
                dispatch(item)
                if len(in_flight) >= backlog:
                    break
            while in_flight:
                finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in finished:
                    item = in_flight.pop(future)
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        # the pool is unusable now; a fresh one is
                        # created on the next submit
                        self._pool = None
                        raise broken_pool(item) from None
                    self._stats.completed += 1
                    yield PointResult(
                        index=item.index, payload=payload,
                        submit_ns=dispatch_ns.pop(future),
                        elapsed_seconds=(time.perf_counter()
                                         - submitted.pop(future)),
                    )
                depth.set(len(in_flight))
                for item in queue:
                    dispatch(item)
                    if len(in_flight) >= backlog:
                        break
        except BaseException:
            for future in in_flight:
                future.cancel()
            raise
        finally:
            depth.set(0)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        super().close()

    def __repr__(self) -> str:
        return f"LocalPoolBackend(jobs={self.jobs})"
