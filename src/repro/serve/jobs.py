"""Job table with request coalescing for the roofline service.

Every ``POST /measure|analyze|sweep`` becomes a :class:`Job` keyed by
the SHA-256 of its canonical ``(kind, params)`` document — the same
canonical-JSON discipline the sweep cache uses.  ``params`` is the
request as :func:`repro.request.validate` normalised it, so two
spellings of one request hash the same.  Coalescing happens at
two layers:

* **in-flight** — an identical request arriving while a job is pending
  or running *attaches* to it (no second execution, both callers get
  the one result);
* **completed** — an identical request arriving later runs again, but
  every sweep point replays from the content-addressed sweep cache, so
  no simulation work repeats either way.

Jobs carry a bounded progress-event list fed from the sweep's
``on_point`` callback; ``GET /jobs/<id>/events`` streams it as NDJSON.
The table holds finished jobs for later ``GET /jobs/<id>`` polls,
evicting the oldest past :data:`MAX_FINISHED_JOBS`.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["Job", "JobTable", "job_key"]

#: finished jobs retained for GET /jobs/<id>; oldest evicted past this
MAX_FINISHED_JOBS = 256

#: per-job progress-event ring cap
MAX_JOB_EVENTS = 4096

PENDING, RUNNING, DONE, ERROR = "pending", "running", "done", "error"


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def job_key(kind: str, params: dict) -> str:
    """Content hash of one request; identical requests collide here."""
    return hashlib.sha256(
        canonical({"kind": kind, "params": params}).encode("utf-8")
    ).hexdigest()


@dataclass
class Job:
    """One unit of service work and its observable lifecycle."""

    id: str
    kind: str
    params: dict
    key: str
    status: str = PENDING
    result: Optional[dict] = None
    error: Optional[str] = None
    #: the failure was on the request's own parameters (answer 400)
    invalid: bool = False
    #: how many requests rode this execution beyond the first
    coalesced: int = 0
    events: List[dict] = field(default_factory=list)
    events_dropped: int = 0
    done_event: asyncio.Event = field(default_factory=asyncio.Event)
    #: monotonically increasing sequence for event streaming
    _event_seq: int = 0

    def add_event(self, doc: dict) -> None:
        """Append one progress event (ring-bounded)."""
        self._event_seq += 1
        doc = {"seq": self._event_seq, **doc}
        self.events.append(doc)
        if len(self.events) > MAX_JOB_EVENTS:
            del self.events[0]
            self.events_dropped += 1

    @property
    def finished(self) -> bool:
        return self.status in (DONE, ERROR)

    def describe(self) -> dict:
        doc = {
            "id": self.id,
            "kind": self.kind,
            "status": self.status,
            "coalesced": self.coalesced,
            "events": len(self.events),
        }
        if self.events_dropped:
            doc["events_dropped"] = self.events_dropped
        if self.status == ERROR:
            doc["error"] = self.error
        if self.status == DONE:
            doc["result"] = self.result
        return doc


class JobTable:
    """Id and key indexes over live + recently finished jobs.

    Single-threaded by construction: every method runs on the event
    loop; worker threads touch jobs only via
    ``loop.call_soon_threadsafe``.
    """

    def __init__(self) -> None:
        self._by_id: Dict[str, Job] = {}
        self._by_key: Dict[str, Job] = {}
        self._finished_order: List[str] = []
        self._ids = itertools.count(1)
        #: jobs submitted and not yet finished
        self._live = 0

    def submit(self, kind: str, params: dict) -> Tuple[Job, bool]:
        """Get-or-create the job for one request.

        Returns ``(job, attached)`` — ``attached`` is True when the
        request coalesced onto an already in-flight identical job.
        """
        key = job_key(kind, params)
        existing = self._by_key.get(key)
        if existing is not None and not existing.finished:
            existing.coalesced += 1
            return existing, True
        job = Job(id=f"j{next(self._ids)}", kind=kind, params=params,
                  key=key)
        self._by_id[job.id] = job
        self._by_key[key] = job
        self._live += 1
        return job, False

    def get(self, job_id: str) -> Optional[Job]:
        return self._by_id.get(job_id)

    def finish(self, job: Job) -> None:
        """Mark terminal state bookkeeping; evict old finished jobs."""
        self._live -= 1
        self._finished_order.append(job.id)
        while len(self._finished_order) > MAX_FINISHED_JOBS:
            old_id = self._finished_order.pop(0)
            old = self._by_id.pop(old_id, None)
            if old is not None and self._by_key.get(old.key) is old:
                del self._by_key[old.key]

    def in_flight(self) -> int:
        return self._live

    def __len__(self) -> int:
        return len(self._by_id)
