"""Local process pool: where ``run_plan`` runs its misses in parallel.

``run_plan`` builds one :class:`LocalPoolBackend` for a run that has
more than one miss and ``jobs > 1``, and closes it when the run ends.
The pool fans the run's points over a ``ProcessPoolExecutor`` with a
bounded backlog (:data:`BACKLOG_PER_WORKER` in-flight futures per
worker, so huge plans don't pickle the whole grid into the queue up
front).  Each dispatch notes a flight-recorder breadcrumb and records
its ``submit_ns`` for the flame view's causal flow links, the
queue-depth gauge tracks in-flight futures, and a worker death dumps
the parent's flight-recorder ring with the reprs of every in-flight
point before raising :class:`~repro.errors.SweepError`.

Points go out longest first, by :meth:`~repro.sweep.plan.SweepPoint.
predicted_work` (ties keep their submission order): with the biggest
points dispatched last, one worker would still be simulating one while
the others sat idle.  This is longest-processing-time list scheduling;
results still stream back in completion order.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
# the pool imports these when it starts; loading them with the backend
# keeps a run's time free of imports
from multiprocessing import popen_fork, synchronize  # noqa: F401
from typing import Dict, Iterator, Sequence, Tuple

from ...errors import SweepError
from ...obs import remote
from ...obs.metrics import REGISTRY
from ..executor import simulate_point
from ..plan import SweepPoint

__all__ = ["LocalPoolBackend"]

#: cap on in-flight futures per worker
BACKLOG_PER_WORKER = 4

#: gauge name shared with the live dashboard (kept from the
#: pre-backend executor so existing dashboards/tests keep reading it)
QUEUE_DEPTH_GAUGE = "repro_sweep_executor_queue_depth"

#: one pending point and the trace context it carries to its worker
Item = Tuple[SweepPoint, remote.TraceContext]


def _queue_depth_gauge():
    return REGISTRY.gauge(
        QUEUE_DEPTH_GAUGE,
        "Futures in flight in the sweep process pool",
    )


class LocalPoolBackend:
    """Fan one run's points over a local ``ProcessPoolExecutor``."""

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self._pool = ProcessPoolExecutor(max_workers=jobs)

    def submit(self, items: Sequence[Item]
               ) -> Iterator[Tuple[int, dict, int]]:
        """Simulate ``items``; yield ``(point_index, payload,
        submit_ns)`` in completion order.

        ``point_index`` is the item's ``ctx.point_index`` and
        ``submit_ns`` its dispatch instant (``time.perf_counter_ns``,
        comparable across processes on Linux).  A failing point raises
        its :class:`~repro.errors.SweepPointError`; a dead worker
        raises :class:`~repro.errors.SweepError`.
        """
        depth = _queue_depth_gauge()
        backlog = min(self.jobs, max(len(items), 1)) * BACKLOG_PER_WORKER
        queue = iter(sorted(items,
                            key=lambda item: -item[0].predicted_work()))
        in_flight: Dict[object, Item] = {}
        dispatch_ns: Dict[object, int] = {}

        def dispatch(item: Item) -> None:
            point, ctx = item
            future = self._pool.submit(simulate_point, point, ctx)
            dispatch_ns[future] = time.perf_counter_ns()
            remote.FLIGHT.note(
                "dispatch", f"{point.kernel}:{point.n}",
                index=ctx.point_index, run=ctx.run_id,
            )
            in_flight[future] = item
            depth.set(len(in_flight))

        def broken_pool(first: Item) -> SweepError:
            ordered = sorted([first, *in_flight.values()],
                             key=lambda item: item[1].point_index)
            labels = [f"{point.kernel}:{point.n}" for point, _ in ordered]
            dump = remote.FLIGHT.dump(
                "worker-death", point=repr(first[0]),
                in_flight=[repr(point) for point, _ in ordered],
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
                        raise broken_pool(item) from None
                    yield (item[1].point_index, payload,
                           dispatch_ns.pop(future))
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
        """Shut the pool down, waiting for its workers to exit."""
        self._pool.shutdown(wait=True)

    def __repr__(self) -> str:
        return f"LocalPoolBackend(jobs={self.jobs})"
