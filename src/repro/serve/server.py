"""Roofline-as-a-service: an asyncio HTTP/JSON front-end on the sweep
engine.

``repro serve`` starts a stdlib-only HTTP server exposing the
measurement pipeline:

* ``POST /measure`` — one kernel x size point (W/Q/T payload);
* ``POST /analyze`` — the flagship hierarchical analysis (ceiling
  discovery + kernel sweep + per-level placement);
* ``POST /sweep``   — a measurement grid (explicit sizes or a named
  figure grid);
* ``GET /jobs/<id>`` — job status/result; ``GET /jobs/<id>/events``
  streams per-point progress as NDJSON;
* ``GET /metrics`` (Prometheus exposition), ``GET /healthz``.

Requests are **coalesced** (:mod:`repro.serve.jobs`): identical
in-flight requests share one execution, and repeats after completion
replay point-by-point from the content-addressed sweep cache — the
service never simulates the same inputs twice.  The server holds one
:class:`~repro.sweep.cache.SweepCache` for its lifetime, so a point
read and verified once answers later requests from memory.  POSTs run
the work on a thread pool (the event loop only shuffles bytes) and
respond when the job finishes; pass ``{"async": true}`` to get
``202`` + a job id immediately and poll ``/jobs/<id>`` instead.
Response bodies are compact one-line JSON.

Requests are built as the CLI verbs build them (:mod:`repro.request`):
a bad field answers ``400`` naming it, and the job key hashes the
normalised request, so ``dgemm`` and ``dgemm-tiled`` share one job.  A
job that fails on the request's own parameters (a size the kernel
rejects) answers ``400`` too; internal failures answer ``500``.

On SIGTERM/SIGINT the server **drains**: the listener closes (new
connections are refused), in-flight jobs run to completion and their
responses flush, then the process exits 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from ..errors import ConfigurationError, ReproError, SweepPointError
from ..obs.metrics import REGISTRY
from ..sweep.cache import SweepCache
from .http import (
    HttpError,
    Request,
    read_request,
    response_bytes,
    stream_headers,
)
from .jobs import DONE, ERROR, RUNNING, JobTable

__all__ = ["RooflineServer"]

#: job kinds, one POST endpoint each (fields: repro.request.validate)
_KINDS = ("measure", "analyze", "sweep")


def _metrics():
    return {
        "requests": REGISTRY.counter(
            "repro_serve_requests_total",
            "HTTP requests accepted by the roofline service"),
        "request_seconds": REGISTRY.histogram(
            "repro_serve_request_seconds",
            "Wall time to answer one service request"),
        "queue_depth": REGISTRY.gauge(
            "repro_serve_queue_depth",
            "Service jobs pending or running"),
        "coalesced": REGISTRY.counter(
            "repro_serve_coalesced_total",
            "Requests that attached to an identical in-flight job"),
        "executed": REGISTRY.counter(
            "repro_serve_jobs_executed_total",
            "Service jobs actually executed (post-coalescing)"),
    }


class RooflineServer:
    """The service: routing, job lifecycle, metrics, graceful drain."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 jobs: Optional[int] = None,
                 cache_dir: Optional[str] = None, no_cache: bool = False,
                 threads: int = 4) -> None:
        self.host = host
        self.port = port
        self.jobs = jobs
        # one cache for the server's lifetime: a point verified once
        # answers every later request from memory
        self.cache = None if no_cache else SweepCache(cache_dir)
        self.table = JobTable()
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool = ThreadPoolExecutor(
            max_workers=threads, thread_name_prefix="repro-serve")
        self._tasks: set = set()
        self._metrics = _metrics()
        self._drained = None  # asyncio.Event, created on start

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self):
        """Bound ``(host, port)`` — available after :meth:`start`."""
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> None:
        self._drained = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port)

    async def serve_forever(self, install_signals: bool = True) -> None:
        """Run until a drain signal lands; returns after the drain."""
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(
                    signum, lambda s=signum: asyncio.ensure_future(
                        self.drain(reason=signal.Signals(s).name)))
        await self._drained.wait()

    async def drain(self, reason: str = "drain") -> None:
        """Stop accepting, finish in-flight work, release resources."""
        if self.draining:
            return
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._tasks:
            await asyncio.gather(*list(self._tasks),
                                 return_exceptions=True)
        self._pool.shutdown(wait=True)
        if self._drained is not None:
            self._drained.set()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        started = time.perf_counter()
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                self._metrics["requests"].inc()
                await self._dispatch(request, writer)
            except HttpError as exc:
                await self._send_error(writer, exc.status, str(exc))
            except ReproError as exc:
                await self._send_error(writer, 400, str(exc))
            except Exception as exc:  # noqa: BLE001 — last-resort 500
                await self._send_error(
                    writer, 500, f"{type(exc).__name__}: {exc}")
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._metrics["request_seconds"].observe(
                time.perf_counter() - started)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _send_json(self, writer: asyncio.StreamWriter, status: int,
                         doc: dict) -> None:
        # compact, so json's C encoder runs (an indent selects the
        # pure-Python one); pipe through `python -m json.tool` to read
        body = (json.dumps(doc) + "\n").encode("utf-8")
        writer.write(response_bytes(status, body))
        await writer.drain()

    async def _send_error(self, writer: asyncio.StreamWriter, status: int,
                          message: str) -> None:
        await self._send_json(writer, status, {"error": message})

    async def _dispatch(self, request: Request,
                        writer: asyncio.StreamWriter) -> None:
        path = request.path.rstrip("/") or "/"
        if request.method == "GET":
            if path == "/healthz":
                return await self._send_json(writer, 200, {
                    "status": "draining" if self.draining else "ok",
                    "jobs_in_flight": self.table.in_flight(),
                })
            if path == "/metrics":
                body = REGISTRY.to_prometheus().encode("utf-8")
                writer.write(response_bytes(
                    status=200, body=body,
                    content_type="text/plain; version=0.0.4"))
                return await writer.drain()
            if path.startswith("/jobs/"):
                return await self._handle_jobs(path, writer)
            raise HttpError(404, f"no such resource: {path}")
        if request.method == "POST":
            kind = path.lstrip("/")
            if kind not in _KINDS:
                raise HttpError(404, f"no such endpoint: {path}")
            if self.draining:
                raise HttpError(503, "server is draining")
            return await self._handle_submit(kind, request, writer)
        raise HttpError(405, f"method {request.method} not supported")

    # ------------------------------------------------------------------
    # jobs
    # ------------------------------------------------------------------
    async def _handle_submit(self, kind: str, request: Request,
                             writer: asyncio.StreamWriter) -> None:
        from ..request import validate
        doc = request.json()
        wants_async = bool(doc.pop("async", False))
        params = validate(kind, doc)
        job, attached = self.table.submit(kind, params)
        if attached:
            self._metrics["coalesced"].inc()
        else:
            self._metrics["executed"].inc()
            self._metrics["queue_depth"].set(self.table.in_flight())
            task = asyncio.ensure_future(self._run_job(job))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        if wants_async:
            return await self._send_json(writer, 202, {
                "job": job.id, "status": job.status,
                "coalesced": attached,
            })
        await job.done_event.wait()
        if job.status == DONE:
            status = 200
        else:
            status = 400 if job.invalid else 500
        await self._send_json(writer, status, job.describe())

    async def _run_job(self, job) -> None:
        loop = asyncio.get_running_loop()

        def emit(doc: dict) -> None:
            loop.call_soon_threadsafe(job.add_event, doc)

        job.status = RUNNING
        job.add_event({"type": "job", "status": RUNNING,
                       "kind": job.kind})
        try:
            job.result = await loop.run_in_executor(
                self._pool, self._execute, job.kind, job.params, emit)
            job.status = DONE
        except ReproError as exc:
            job.status = ERROR
            invalid = _invalid_request(exc)
            job.invalid = invalid is not None
            job.error = str(exc) if invalid is None else invalid
        except Exception as exc:  # noqa: BLE001 — job must terminate
            job.status = ERROR
            job.error = f"{type(exc).__name__}: {exc}"
        job.add_event({"type": "job", "status": job.status})
        self.table.finish(job)
        self._metrics["queue_depth"].set(self.table.in_flight())
        job.done_event.set()

    async def _handle_jobs(self, path: str,
                           writer: asyncio.StreamWriter) -> None:
        parts = path.split("/")  # ['', 'jobs', '<id>'(, 'events')]
        job = self.table.get(parts[2]) if len(parts) >= 3 else None
        if job is None:
            raise HttpError(404, f"no such job: {path}")
        if len(parts) == 3:
            return await self._send_json(writer, 200, job.describe())
        if len(parts) == 4 and parts[3] == "events":
            return await self._stream_events(job, writer)
        raise HttpError(404, f"no such resource: {path}")

    async def _stream_events(self, job,
                             writer: asyncio.StreamWriter) -> None:
        """Replay recorded events, then follow until the job ends."""
        writer.write(stream_headers())
        await writer.drain()
        cursor = 0
        while True:
            while cursor < len(job.events):
                line = json.dumps(job.events[cursor],
                                  sort_keys=True) + "\n"
                writer.write(line.encode("utf-8"))
                cursor += 1
            await writer.drain()
            if job.finished and cursor >= len(job.events):
                return
            try:
                await asyncio.wait_for(job.done_event.wait(), timeout=0.1)
            except asyncio.TimeoutError:
                pass

    # ------------------------------------------------------------------
    # the actual work (runs on the thread pool)
    # ------------------------------------------------------------------
    def _execute(self, kind: str, params: dict, emit) -> dict:
        from ..measure.runner import Measurement  # noqa: F401 — warm import
        runner = getattr(self, f"_run_{kind}")
        return runner(params, emit)

    def _on_point(self, emit):
        def on_point(done: int, total: int, point, status: str) -> None:
            emit({"type": "point", "done": done, "total": total,
                  "label": point.label(), "status": status})
        return on_point

    def _run_measure(self, params: dict, emit) -> dict:
        doc = self._run_sweep({**params, "sizes": [params["n"]]}, emit)
        return {
            "machine": doc["machine"],
            "measurement": doc["measurements"][0],
            "stats": doc["stats"],
            "backend": doc["backend"],
        }

    def _run_sweep(self, params: dict, emit) -> dict:
        from ..machine.ref import MachineRef
        from ..request import build_plan, sweep_document
        from ..sweep.executor import run_plan
        ref = MachineRef.named(params["machine"], params["scale"],
                               params["engine"])
        plan = build_plan(
            ref, kernel=params.get("kernel"), sizes=params.get("sizes"),
            grid=params.get("grid"), protocol=params.get("protocol", "cold"),
            reps=params["reps"], threads=params.get("threads", 1))
        run = run_plan(plan, jobs=self.jobs, cache=self.cache,
                       on_point=self._on_point(emit))
        return sweep_document(ref, run)

    def _run_analyze(self, params: dict, emit) -> dict:
        from ..machine.ref import MachineRef
        from ..roofline.hierarchical import analyze
        ref = MachineRef.named(params["machine"], params["scale"],
                               params["engine"])
        emit({"type": "phase", "phase": "ceilings"})
        result = analyze(
            params["kernel"], params["sizes"], machine=ref,
            protocol=params["protocol"], reps=params["reps"],
            flop_counts=params["flops"], jobs=self.jobs,
            cache=self.cache,
        )
        emit({"type": "phase", "phase": "placed"})
        return result.to_json_doc()


def _invalid_request(exc: ReproError) -> Optional[str]:
    """The validation message when a job failed on the request's own
    parameters (a configuration error, directly or inside a sweep
    point), else None — an internal failure."""
    if isinstance(exc, SweepPointError):
        return exc.invalid
    if isinstance(exc, ConfigurationError):
        return str(exc)
    return None
