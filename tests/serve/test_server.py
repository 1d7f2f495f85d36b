"""Roofline service: endpoints, coalescing, metrics, graceful drain.

Each test spins the server on an ephemeral loopback port inside a
private event loop, drives it with blocking ``urllib`` clients on
executor threads (real sockets, real HTTP), and drains it before
asserting.  The coalescing test is the service-level analogue of the
backend parity suite: 8 concurrent identical requests must cost
exactly one simulation, observable through the ``repro_serve_*`` and
sweep cache metrics.
"""

import asyncio
import json
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import REGISTRY
from repro.serve import RooflineServer
from repro.serve.jobs import JobTable, job_key
from tests.conftest import needs_ckernel

pytestmark = pytest.mark.sweep


def post(base: str, path: str, doc: dict):
    req = urllib.request.Request(
        base + path, data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=120) as resp:
        return resp.status, json.loads(resp.read())


def get(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=120) as resp:
        return resp.status, resp.read()


def post_raw(base: str, path: str, doc: dict) -> bytes:
    req = urllib.request.Request(
        base + path, data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=120) as resp:
        return resp.read()


def serve(test_body):
    """Run ``await test_body(server, base_url)`` on a fresh server."""
    async def runner():
        server = RooflineServer(port=0, threads=4)
        await server.start()
        host, port = server.address
        try:
            await test_body(server, f"http://{host}:{port}")
        finally:
            await server.drain()
    asyncio.run(runner())


def metric_value(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name) and "{" not in line[len(name):][:1]:
            parts = line.split()
            if parts[0] == name:
                return float(parts[1])
    raise AssertionError(f"metric {name} not found")


class TestEndpoints:
    def test_healthz_and_404(self):
        async def body(server, base):
            loop = asyncio.get_running_loop()
            status, raw = await loop.run_in_executor(
                None, get, base, "/healthz")
            assert status == 200
            assert json.loads(raw)["status"] == "ok"
            with pytest.raises(urllib.error.HTTPError) as err:
                await loop.run_in_executor(None, get, base, "/nope")
            assert err.value.code == 404
        serve(body)

    def test_measure_roundtrip_matches_direct_run(self):
        async def body(server, base):
            loop = asyncio.get_running_loop()
            status, doc = await loop.run_in_executor(
                None, post, base, "/measure",
                {"kernel": "daxpy", "n": 96, "machine": "tiny"})
            assert status == 200 and doc["status"] == "done"
            served = doc["result"]["measurement"]

            from repro.machine.ref import MachineRef
            from repro.sweep import (
                SweepPlan,
                measurement_to_payload,
                run_plan,
            )
            plan = SweepPlan()
            plan.add_sweep(MachineRef.of("tiny"), "daxpy", [96])
            direct = run_plan(plan, cache=None)
            assert served == measurement_to_payload(direct.measurements[0])
        serve(body)

    def test_validation_errors_are_400s(self):
        async def body(server, base):
            loop = asyncio.get_running_loop()
            for path, doc, message in (
                    ("/measure", {"kernel": "daxpy"}, "requires"),
                    ("/measure", {"kernel": "daxpy", "n": 96,
                                  "machine": "tiny", "protocol": "hot"},
                     "unknown protocol 'hot'"),
                    ("/sweep", {"kernel": "daxpy", "sizes": [96],
                                "machine": "tiny", "protocol": "cold,hot"},
                     "unknown protocol 'hot'"),
                    # a count must be a JSON integer above zero
                    ("/sweep", {"kernel": "daxpy", "sizes": ["abc"],
                                "machine": "tiny"}, "sizes must be"),
                    ("/sweep", {"kernel": "daxpy", "sizes": [1024.7],
                                "machine": "tiny"}, "sizes must be"),
                    ("/measure", {"kernel": "daxpy", "n": 96,
                                  "machine": "tiny", "reps": "2"},
                     "reps must be"),
                    ("/measure", {"kernel": "daxpy", "n": 96,
                                  "machine": "tiny", "reps": 2.0},
                     "reps must be"),
                    ("/measure", {"kernel": "daxpy", "n": 96,
                                  "machine": "tiny", "reps": 0},
                     "reps must be"),
                    ("/measure", {"kernel": "daxpy", "n": 96,
                                  "machine": "tiny", "threads": "x"},
                     "threads must be"),
                    ("/measure", {"kernel": "daxpy", "n": 96,
                                  "machine": "tiny", "threads": True},
                     "threads must be"),
                    ("/measure", {"kernel": "daxpy", "n": -96,
                                  "machine": "tiny"}, "n must be"),
                    # lists must be non-empty lists
                    ("/sweep", {"kernel": "daxpy", "sizes": 96,
                                "machine": "tiny"},
                     "sizes must be a non-empty list of positive"),
                    ("/analyze", {"kernel": "daxpy", "sizes": [96],
                                  "machine": "tiny", "flops": 4},
                     "flops must be"),
                    ("/analyze", {"kernel": "daxpy", "sizes": [96],
                                  "machine": "tiny", "flops": []},
                     "flops must be"),
                    # scale must be a finite positive number
                    ("/measure", {"kernel": "daxpy", "n": 96,
                                  "scale": float("nan")}, "scale must be a finite"),
                    ("/measure", {"kernel": "daxpy", "n": 96,
                                  "scale": 0}, "scale must be a finite"),
                    ("/measure", {"kernel": "daxpy", "n": 96,
                                  "scale": "x"}, "scale must be a finite"),
                    # names must name something known
                    ("/measure", {"kernel": "daxpy", "n": 96,
                                  "machine": "nope"},
                     "unknown machine 'nope'"),
                    ("/sweep", {"grid": "f9", "machine": "tiny"},
                     "unknown grid 'f9'"),
                    ("/measure", {"kernel": "daxpy", "n": 96,
                                  "machine": "tiny", "engine": "turbo"},
                     "unknown engine 'turbo'"),
                    ("/measure", {"kernel": "sgemm", "n": 96,
                                  "machine": "tiny"},
                     "unknown kernel 'sgemm'")):
                with pytest.raises(urllib.error.HTTPError) as err:
                    await loop.run_in_executor(None, post, base, path, doc)
                assert err.value.code == 400, path
                assert message in json.loads(err.value.read())["error"]
        serve(body)

    def test_job_failing_on_request_parameters_is_400(self):
        # 5003 is not a whole number of vectors: the kernel's own
        # validation rejects it inside the sweep point, which must read
        # as a bad request carrying the validation message, not a 500
        async def body(server, base):
            loop = asyncio.get_running_loop()
            for path, doc in (
                    ("/measure", {"kernel": "daxpy", "n": 5003}),
                    ("/sweep", {"kernel": "daxpy", "sizes": [5003],
                                "machine": "tiny"}),
                    ("/analyze", {"kernel": "daxpy", "sizes": [5003],
                                  "machine": "tiny", "flops": [1]})):
                with pytest.raises(urllib.error.HTTPError) as err:
                    await loop.run_in_executor(None, post, base, path, doc)
                assert err.value.code == 400, path
                message = json.loads(err.value.read())["error"]
                assert message.startswith("daxpy: n=5003"), message
                assert "flight-recorder" not in message
        serve(body)

    def test_size_beyond_the_address_space_is_400(self):
        # 2^40 doubles need 16x the 1 TiB simulated address space: the
        # body passes validation, and the point must reject the size
        # before building anything, as a bad request naming n
        async def body(server, base):
            loop = asyncio.get_running_loop()
            huge = 1 << 40
            for path, doc in (
                    ("/measure", {"kernel": "daxpy", "n": huge,
                                  "machine": "tiny"}),
                    ("/sweep", {"kernel": "daxpy", "sizes": [huge],
                                "machine": "tiny"})):
                with pytest.raises(urllib.error.HTTPError) as err:
                    await loop.run_in_executor(None, post, base, path, doc)
                assert err.value.code == 400, path
                message = json.loads(err.value.read())["error"]
                assert message.startswith(f"daxpy: n={huge} needs more "
                                          "than the"), message
                assert "address space" in message
        serve(body)

    @needs_ckernel
    def test_size_beyond_host_memory_is_400(self, host_refuses_huge_tables):
        # the size fits the simulated address space, but the host cannot
        # map the run's prefetched-line table: still the request's fault
        async def body(server, base):
            loop = asyncio.get_running_loop()
            n = (1 << 36) - 512
            with pytest.raises(urllib.error.HTTPError) as err:
                await loop.run_in_executor(
                    None, post, base, "/measure",
                    {"kernel": "daxpy", "n": n, "machine": "tiny"})
            assert err.value.code == 400
            message = json.loads(err.value.read())["error"]
            assert message.startswith(
                f"daxpy: n={n}: the prefetched-line table needs "), message
        serve(body)

    def test_point_error_keeps_its_validation_message_across_pickling(self):
        # pool workers raise SweepPointError in another process
        import pickle

        from repro.errors import SweepPointError

        err = SweepPointError("sweep point daxpy:5003 failed: ...",
                              invalid="daxpy: n=5003 is bad")
        back = pickle.loads(pickle.dumps(err))
        assert str(back) == str(err)
        assert back.invalid == "daxpy: n=5003 is bad"
        assert pickle.loads(pickle.dumps(SweepPointError("x"))).invalid is None

    def test_internal_job_failure_stays_500(self, monkeypatch):
        def broken(self, params, emit):
            raise RuntimeError("simulator bug")

        monkeypatch.setattr(RooflineServer, "_run_measure", broken)

        async def body(server, base):
            loop = asyncio.get_running_loop()
            with pytest.raises(urllib.error.HTTPError) as err:
                await loop.run_in_executor(
                    None, post, base, "/measure",
                    {"kernel": "daxpy", "n": 96, "machine": "tiny"})
            assert err.value.code == 500
            assert "simulator bug" in json.loads(err.value.read())["error"]
        serve(body)

    def test_job_poll_and_event_stream(self):
        async def body(server, base):
            loop = asyncio.get_running_loop()
            status, doc = await loop.run_in_executor(
                None, post, base, "/measure",
                {"kernel": "daxpy", "n": 128, "machine": "tiny",
                 "async": True})
            assert status == 202
            job_id = doc["job"]
            # poll until done (the simulation is quick on tiny)
            for _ in range(200):
                status, raw = await loop.run_in_executor(
                    None, get, base, f"/jobs/{job_id}")
                state = json.loads(raw)
                if state["status"] in ("done", "error"):
                    break
                await asyncio.sleep(0.05)
            assert state["status"] == "done"
            status, raw = await loop.run_in_executor(
                None, get, base, f"/jobs/{job_id}/events")
            lines = [json.loads(line)
                     for line in raw.decode().strip().splitlines()]
            assert lines[0]["status"] == "running"
            assert lines[-1]["status"] == "done"
            assert any(e.get("type") == "point" for e in lines)
        serve(body)


class TestOneRequestPath:
    """The service builds its requests the way the CLI does."""

    def test_sweep_matches_the_cli_sweep(self, capsys):
        from repro.cli import main

        assert main(["sweep", "daxpy", "--sizes", "1024,2048", "--machine",
                     "tiny", "--no-cache", "--json"]) == 0
        cli = json.loads(capsys.readouterr().out)

        async def body(server, base):
            loop = asyncio.get_running_loop()
            status, doc = await loop.run_in_executor(
                None, post, base, "/sweep",
                {"kernel": "daxpy", "sizes": [1024, 2048],
                 "machine": "tiny"})
            assert status == 200
            served = doc["result"]
            assert served["keys"] == cli["keys"]
            assert served["measurements"] == cli["measurements"]
            assert served["machine"] == cli["machine"]

            status, doc = await loop.run_in_executor(
                None, post, base, "/measure",
                {"kernel": "daxpy", "n": 2048, "machine": "tiny"})
            assert status == 200
            assert doc["result"]["measurement"] == cli["measurements"][1]
        serve(body)

    def test_analyze_alias_returns_its_kernels_result(self):
        from repro.request import validate

        request = {"sizes": [16, 32], "machine": "tiny", "flops": [1, 4]}

        async def body(server, base):
            loop = asyncio.get_running_loop()
            results = []
            for kernel in ("dgemm", "dgemm-tiled"):
                status, doc = await loop.run_in_executor(
                    None, post, base, "/analyze",
                    {"kernel": kernel, **request})
                assert status == 200, doc
                results.append(doc["result"])
            assert results[0] == results[1]
            assert results[0]["kernel"] == "dgemm-tiled"
        serve(body)
        keys = {job_key("analyze", validate("analyze", {"kernel": k,
                                                        **request}))
                for k in ("dgemm", "dgemm-tiled")}
        assert len(keys) == 1


class TestCoalescing:
    def test_eight_concurrent_identical_requests_one_simulation(self):
        params = {"kernel": "daxpy", "n": 192, "machine": "tiny"}

        async def body(server, base):
            loop = asyncio.get_running_loop()
            before_miss = _sweep_misses()
            results = await asyncio.gather(*[
                loop.run_in_executor(None, post, base, "/measure",
                                     dict(params))
                for _ in range(8)
            ])
            assert {status for status, _ in results} == {200}
            payloads = {
                json.dumps(doc["result"]["measurement"], sort_keys=True)
                for _, doc in results
            }
            assert len(payloads) == 1
            # exactly one *simulation* happened: in-flight duplicates
            # coalesced onto the first job, and any request arriving
            # after it finished replayed from the sweep cache
            assert _sweep_misses() - before_miss == 1

            status, raw = await loop.run_in_executor(
                None, get, base, "/metrics")
            text = raw.decode()
            executed = metric_value(text,
                                    "repro_serve_jobs_executed_total")
            coalesced = metric_value(text,
                                     "repro_serve_coalesced_total")
            assert executed + coalesced >= 8
            assert coalesced >= 1 or executed >= 2  # both paths legal
            assert metric_value(text, "repro_serve_queue_depth") == 0
        serve(body)

    def test_job_key_is_order_insensitive(self):
        a = job_key("measure", {"kernel": "daxpy", "n": 5})
        b = job_key("measure", {"n": 5, "kernel": "daxpy"})
        assert a == b
        assert a != job_key("sweep", {"kernel": "daxpy", "n": 5})

    def test_table_attaches_only_to_in_flight_jobs(self):
        async def body():
            table = JobTable()
            job, attached = table.submit("measure", {"n": 1})
            assert not attached
            again, attached = table.submit("measure", {"n": 1})
            assert attached and again is job and job.coalesced == 1
            job.status = "done"
            table.finish(job)
            fresh, attached = table.submit("measure", {"n": 1})
            assert not attached and fresh is not job
        asyncio.run(body())

    def test_in_flight_count_follows_attach_finish_and_eviction(
            self, monkeypatch):
        from repro.serve import jobs as jobs_module
        monkeypatch.setattr(jobs_module, "MAX_FINISHED_JOBS", 2)

        async def body():
            table = JobTable()

            def check(expected: int) -> None:
                walked = sum(1 for job in table._by_id.values()
                             if not job.finished)
                assert table.in_flight() == walked == expected

            first, _ = table.submit("measure", {"n": 1})
            check(1)
            _, attached = table.submit("measure", {"n": 1})
            assert attached
            check(1)
            second, _ = table.submit("measure", {"n": 2})
            check(2)
            first.status = "done"
            table.finish(first)
            check(1)
            for n in range(3, 8):  # finished jobs past the cap evict
                job, _ = table.submit("measure", {"n": n})
                check(2)
                job.status = "error"
                table.finish(job)
                check(1)
            assert len(table) == 3 and table.get(first.id) is None
            second.status = "done"
            table.finish(second)
            check(0)
        asyncio.run(body())


class TestResponseBodies:
    def test_bodies_are_single_line_and_parse_to_the_same_document(self):
        from repro.machine.ref import MachineRef
        from repro.roofline.hierarchical import analyze

        request = {"kernel": "dgemm-tiled", "sizes": [16, 32],
                   "machine": "tiny"}
        direct = analyze("dgemm-tiled", [16, 32],
                         machine=MachineRef.named("tiny", 0.125, "fast"),
                         cache=None).to_json_doc()

        async def body(server, base):
            loop = asyncio.get_running_loop()
            # simulated or replayed, then replayed from the server's cache
            for _ in range(2):
                raw = await loop.run_in_executor(
                    None, post_raw, base, "/analyze", request)
                assert raw.endswith(b"\n") and raw.count(b"\n") == 1
                doc = json.loads(raw)
                assert raw == (json.dumps(doc) + "\n").encode("utf-8")
                assert doc["result"] == json.loads(json.dumps(direct))
            status, raw = await loop.run_in_executor(
                None, get, base, "/healthz")
            assert raw == b'{"status": "ok", "jobs_in_flight": 0}\n'
        serve(body)


class TestServerCache:
    def test_one_cache_serves_every_job_from_memory(self):
        async def body(server, base):
            cache = server.cache
            assert cache is not None
            loop = asyncio.get_running_loop()
            request = {"kernel": "daxpy", "sizes": [88], "machine": "tiny"}
            docs = [(await loop.run_in_executor(
                None, post, base, "/sweep", request))[1]["result"]
                for _ in range(2)]
            assert server.cache is cache
            assert docs[1]["stats"]["hits"] == 1
            assert docs[1]["measurements"] == docs[0]["measurements"]
            assert docs[1]["keys"][0] in cache._memory
        serve(body)

    def test_no_cache_server_holds_none(self):
        assert RooflineServer(port=0, no_cache=True).cache is None


class TestDrain:
    def test_drain_finishes_in_flight_work_then_refuses(self):
        async def body(server, base):
            loop = asyncio.get_running_loop()
            inflight = loop.run_in_executor(
                None, post, base, "/measure",
                {"kernel": "daxpy", "n": 256, "machine": "tiny"})
            await asyncio.sleep(0.05)
            await server.drain()
            status, doc = await inflight
            assert status == 200 and doc["status"] == "done"
            with pytest.raises((urllib.error.URLError, OSError)):
                await loop.run_in_executor(
                    None, get, base, "/healthz")
        serve(body)


def _sweep_misses() -> float:
    metric = REGISTRY.to_prometheus()
    for line in metric.splitlines():
        if line.startswith('repro_sweep_points_total{outcome="miss"}'):
            return float(line.split()[1])
    return 0.0
