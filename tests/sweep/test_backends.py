"""Dispatch parity: serial ≡ local pool, bit for bit.

Where a point executes must be unobservable in the result.  These tests
checksum full serialised payloads across ``run_plan``'s serial and pool
paths, prove cache-key compatibility (a cache populated under one
``jobs`` replays under another), pin the run's backend report, and run
random sweep shapes through the pool with a hypothesis suite.
"""

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import SweepError
from repro.machine.ref import MachineRef
from repro.sweep import (
    JOBS_ENV,
    SweepCache,
    SweepPlan,
    measurement_to_payload,
    resolve_jobs,
    run_plan,
)

pytestmark = pytest.mark.sweep


def small_plan(kernel="daxpy", sizes=(96, 160, 224), protocol="cold",
               reps=2) -> SweepPlan:
    plan = SweepPlan()
    plan.add_sweep(MachineRef.of("tiny"), kernel, list(sizes),
                   protocol=protocol, reps=reps)
    return plan


def checksum(run) -> str:
    """SHA-256 over payloads + keys: the whole observable result."""
    doc = {
        "keys": run.keys,
        "payloads": [measurement_to_payload(m) for m in run.measurements],
    }
    encoded = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def serial_reference():
    return run_plan(small_plan(), cache=None, jobs=1)


class TestParity:
    def test_serial_pool_checksum_identical(self, serial_reference):
        pool = run_plan(small_plan(), cache=None, jobs=2)
        assert checksum(pool) == checksum(serial_reference)
        assert pool.backend == "pool"

    @pytest.mark.parametrize("fill_jobs", [1, 2])
    def test_cache_populated_under_one_jobs_replays_under_all(
            self, tmp_path, serial_reference, fill_jobs):
        cache = SweepCache(str(tmp_path / "shared"))
        cold = run_plan(small_plan(), cache=cache, jobs=fill_jobs)
        assert cold.stats.misses == 3 and cold.stats.hits == 0
        for jobs in (1, 2):
            replay = run_plan(small_plan(), cache=cache, jobs=jobs)
            assert replay.stats.hits == 3 and replay.stats.misses == 0
            assert replay.keys == cold.keys
            assert checksum(replay) == checksum(serial_reference)
            assert replay.backend == "cached"

    def test_pool_results_fold_back_into_plan_order(self):
        run = run_plan(small_plan(), cache=None, jobs=2)
        plan = small_plan()
        for point, m in zip(plan, run.measurements):
            assert (point.kernel, point.n) == (m.kernel, m.n)


class TestBackendReport:
    """``SweepRun.backend`` and ``telemetry["backend"]`` per ``jobs``."""

    @pytest.mark.parametrize("jobs,backend,parallel,workers", [
        (1, "serial", False, 0),
        (2, "pool", True, 2),
        (8, "pool", True, 3),  # never more workers than misses
    ])
    def test_report_names_where_the_misses_ran(self, jobs, backend,
                                               parallel, workers):
        run = run_plan(small_plan(), cache=None, jobs=jobs)
        assert run.backend == backend
        assert run.telemetry["backend"] == {
            "backend": backend, "parallel": parallel, "dispatched": 3,
            "completed": 3, "worker_deaths": 0, "workers_spawned": workers,
        }

    def test_fully_cached_rerun_reports_no_backend(self, tmp_path):
        cache = SweepCache(str(tmp_path / "cache"))
        run_plan(small_plan(), cache=cache, jobs=2)
        warm = run_plan(small_plan(), cache=cache, jobs=2)
        assert warm.backend == "cached"
        assert "backend" not in warm.telemetry


class TestDispatchOrder:
    def test_pool_dispatches_longest_first_and_folds_into_plan_order(
            self, monkeypatch):
        plan = SweepPlan()
        tiny = MachineRef.of("tiny")
        plan.add_sweep(tiny, "daxpy", [96, 4096], protocol="warm", reps=1)
        plan.add_sweep(tiny, "daxpy", [96, 224], protocol="cold", reps=1)
        # equal footprints: a tie, which keeps plan order
        for kernel in ("dgemm-naive", "dgemm-ikj"):
            plan.add_sweep(tiny, kernel, [16], protocol="warm", reps=1)
        points = list(plan)
        estimates = [p.predicted_work() for p in points]
        expected = sorted(range(len(points)), key=lambda i: -estimates[i])
        assert expected != list(range(len(points)))
        assert estimates[4] == estimates[5]

        submitted = []
        submit = ProcessPoolExecutor.submit

        def record(pool, fn, point, ctx):
            submitted.append(ctx.point_index)
            return submit(pool, fn, point, ctx)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", record)
        run = run_plan(plan, cache=None, jobs=2)
        assert submitted == expected
        assert [(m.kernel, m.n, m.protocol) for m in run.measurements] == \
            [(p.kernel, p.n, p.protocol) for p in points]
        assert checksum(run) == checksum(run_plan(plan, cache=None, jobs=1))


class TestHypothesisShapes:
    """Random small plans through the pool and the serial path."""

    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=8, deadline=None)
    @given(
        kernel=st.sampled_from(["daxpy", "dgemv-row"]),
        sizes=st.lists(st.sampled_from([32, 64, 96, 128, 192]),
                       min_size=1, max_size=3, unique=True),
        protocol=st.sampled_from(["cold", "warm"]),
    )
    def test_pool_matches_serial(self, kernel, sizes, protocol):
        plan = small_plan(kernel=kernel, sizes=sizes, protocol=protocol,
                          reps=1)
        serial = run_plan(plan, cache=None, jobs=1)
        assert checksum(run_plan(plan, cache=None, jobs=2)) == \
            checksum(serial)


class TestResolveJobs:
    def test_explicit_flag_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "4")
        assert resolve_jobs(2) == 2

    def test_env_honoured_when_flag_absent(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "4")
        assert resolve_jobs(None) == 4

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(SweepError, match=JOBS_ENV):
            resolve_jobs(None)
