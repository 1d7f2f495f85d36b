"""Distributed telemetry plane: propagation, merge, flight recorder.

The contract under test (``repro.obs.remote`` + the sweep executor's
plumbing): sweep points carry a :class:`TraceContext` to workers,
workers ship back a compact ``telemetry`` payload section, the parent
merges spans onto per-worker flame tracks and metrics into the shared
registry — and none of it may perturb the measurement payloads, which
stay bit-identical across serial / parallel / cached / telemetry-on /
telemetry-off.  The always-on flight recorder dumps its ring when a
point raises (worker-side) or a worker dies (parent-side).
"""

import json
import multiprocessing
import os

import pytest

from repro.errors import SweepError, SweepPointError
from repro.machine.ref import MachineRef
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.remote import (
    FLIGHTREC_DIR_ENV,
    FlightRecorder,
    SpanSectionCapture,
    TraceContext,
    build_point_telemetry,
    maybe_fault,
    merge_run_telemetry,
    new_run_id,
)
from repro.obs.spans import SPANS, SpanProfiler
from repro.sweep import (
    SweepCache,
    SweepPlan,
    measurement_to_payload,
    run_plan,
)
from repro.sweep.executor import simulate_point
from repro.trace.bus import TraceBus

pytestmark = pytest.mark.sweep

SIZES = (96, 192)


def small_plan() -> SweepPlan:
    plan = SweepPlan()
    plan.add_sweep(MachineRef.of("tiny"), "daxpy", SIZES,
                   protocol="cold", reps=1)
    return plan


def payloads(run):
    return [measurement_to_payload(m) for m in run.measurements]


@pytest.fixture(autouse=True)
def clean_observability():
    """Each test starts from (and leaves behind) pristine globals."""
    SPANS.reset()
    SPANS.disable()
    REGISTRY.reset()
    yield
    SPANS.reset()
    SPANS.disable()
    REGISTRY.reset()


@pytest.fixture
def flightrec_dir(tmp_path, monkeypatch):
    directory = tmp_path / "flightrec"
    monkeypatch.setenv(FLIGHTREC_DIR_ENV, str(directory))
    return directory


# ----------------------------------------------------------------------
# payload invariance: telemetry must be unobservable in the results
# ----------------------------------------------------------------------
class TestPayloadInvariance:
    def test_serial_parallel_and_telemetry_switch_are_bitwise_equal(self):
        base = payloads(run_plan(small_plan(), jobs=1, cache=None))
        assert payloads(run_plan(small_plan(), jobs=1, cache=None,
                                 telemetry=True)) == base
        assert payloads(run_plan(small_plan(), jobs=2,
                                 cache=None)) == base
        assert payloads(run_plan(small_plan(), jobs=2, cache=None,
                                 telemetry=False)) == base

    def test_telemetry_never_reaches_the_cache(self, tmp_path):
        cache = SweepCache(str(tmp_path / "sweepcache"))
        run_plan(small_plan(), jobs=2, cache=cache)
        stored = [os.path.join(root, name)
                  for root, _dirs, names in os.walk(tmp_path / "sweepcache")
                  for name in names if name.endswith(".json")]
        assert stored, "parallel run should have populated the cache"
        for path in stored:
            with open(path, encoding="utf-8") as handle:
                assert '"telemetry"' not in handle.read()

    def test_measurement_payloads_carry_no_telemetry_key(self):
        run = run_plan(small_plan(), jobs=2, cache=None)
        for payload in payloads(run):
            assert "telemetry" not in payload


# ----------------------------------------------------------------------
# telemetry shape: serial(telemetry=True) ≡ parallel, structurally
# ----------------------------------------------------------------------
class TestTelemetryShape:
    def test_default_is_off_serial_on_parallel(self):
        assert run_plan(small_plan(), jobs=1,
                        cache=None).telemetry["collected"] is False
        assert run_plan(small_plan(), jobs=2,
                        cache=None).telemetry["collected"] is True

    def test_serial_and_parallel_telemetry_are_structurally_equivalent(self):
        serial = run_plan(small_plan(), jobs=1, cache=None,
                          telemetry=True).telemetry
        SPANS.reset()
        REGISTRY.reset()
        parallel = run_plan(small_plan(), jobs=2, cache=None).telemetry
        for doc in (serial, parallel):
            assert doc["version"] == 2
            assert doc["collected"] is True
            assert doc["cached_points"] == 0
            assert [p["status"] for p in doc["points"]] == (
                ["simulated"] * len(SIZES))
            assert doc["workers"], "collected run must report workers"
            assert sum(w["points"] for w in doc["workers"]) == len(SIZES)
            for worker in doc["workers"]:
                assert worker["pid"] > 0
                assert worker["busy_seconds"] > 0
                assert worker["spans"] > 0
                assert 0.0 <= worker["utilization"] <= 1.0
                assert "events" not in worker
            assert "events" not in doc
        assert set(serial) == set(parallel)
        assert set(serial["workers"][0]) == set(parallel["workers"][0])

    def test_cache_replay_is_marked_not_fabricated(self, tmp_path):
        cache = SweepCache(str(tmp_path / "sweepcache"))
        run_plan(small_plan(), jobs=2, cache=cache)
        SPANS.reset()
        REGISTRY.reset()
        warm = run_plan(small_plan(), jobs=2, cache=cache).telemetry
        assert warm["cached_points"] == len(SIZES)
        assert all(p["status"] == "replayed-from-cache"
                   for p in warm["points"])
        assert warm["workers"] == []
        assert SPANS._tracks == {}

    def test_worker_metric_series_reach_the_parent_registry(self):
        run_plan(small_plan(), jobs=2, cache=None)
        points = REGISTRY.get("repro_sweep_worker_points_total")
        busy = REGISTRY.get("repro_sweep_worker_busy_seconds_total")
        util = REGISTRY.get("repro_sweep_worker_utilization")
        assert points is not None and busy is not None and util is not None
        assert sum(v for _labels, v in points.samples()) == len(SIZES)
        assert all(v > 0 for _labels, v in busy.samples())
        for labels, value in util.samples():
            assert labels["worker"].isdigit()
            assert 0.0 <= value <= 1.0


# ----------------------------------------------------------------------
# workers never trace the machine
# ----------------------------------------------------------------------
class TestNoMachineTracing:
    def test_collecting_run_attaches_nothing_to_any_trace_bus(
            self, monkeypatch):
        attached = []
        monkeypatch.setattr(TraceBus, "attach",
                            lambda bus, sink: attached.append(sink))
        run = run_plan(small_plan(), jobs=1, cache=None, telemetry=True)
        assert attached == []
        assert run.telemetry["collected"] is True
        assert run.telemetry["version"] == 2
        assert "events" not in run.telemetry

    def test_point_sections_carry_no_event_sample(self):
        plan = small_plan()
        section = simulate_point(plan.points[0],
                                 TraceContext(new_run_id(), 0))["telemetry"]
        assert section["version"] == 2
        assert "events" not in section
        assert section["spans"]["records"]


# ----------------------------------------------------------------------
# default collection follows the backend that actually runs
# ----------------------------------------------------------------------
class TestCollectionFollowsBackend:
    def test_one_pending_point_under_jobs_runs_serial_uncollected(self):
        plan = SweepPlan()
        plan.add_sweep(MachineRef.of("tiny"), "daxpy", (96,),
                       protocol="cold", reps=1)
        run = run_plan(plan, jobs=2, cache=None)
        assert run.backend == "serial"
        assert run.telemetry["collected"] is False
        assert run.telemetry["workers"] == []
        assert not SPANS.enabled
        assert SPANS.records == []

    def test_all_hits_report_nothing_collected(self, tmp_path):
        cache = SweepCache(str(tmp_path / "sweepcache"))
        run_plan(small_plan(), jobs=2, cache=cache)
        warm = run_plan(small_plan(), jobs=2, cache=cache)
        assert warm.backend == "cached"
        assert warm.telemetry["collected"] is False


# ----------------------------------------------------------------------
# merged flame: per-worker tracks with causal links
# ----------------------------------------------------------------------
class TestMergedFlame:
    """Worker spans merge into an enabled profiler, as under ``repro
    sweep --flame-out``; forked workers then capture inline."""

    @pytest.fixture(autouse=True)
    def enabled_profiler(self):
        SPANS.enable()
        yield
        SPANS.disable()

    def test_worker_spans_land_on_per_pid_tracks_with_links(self):
        run = run_plan(small_plan(), jobs=2, cache=None)
        pids = {w["pid"] for w in run.telemetry["workers"]}
        assert set(SPANS._tracks) == pids
        for pid in pids:
            assert SPANS._tracks[pid] == f"sweep worker {pid}"
        assert len(SPANS._links) == len(SIZES)
        run_id = run.telemetry["run"]
        assert {link["id"] for link in SPANS._links} == {
            f"{run_id}:{idx}" for idx in range(len(SIZES))}
        point_tids = {r.tid for r in SPANS.records if r.name == "sweep.point"}
        assert point_tids == pids

    def test_chrome_export_has_worker_tracks_and_flow_arrows(self):
        run_plan(small_plan(), jobs=2, cache=None)
        doc = SPANS.to_chrome_trace(process_name="test sweep")
        events = doc["traceEvents"]
        names = {e.get("name") for e in events
                 if e.get("ph") == "M" and e.get("name") == "thread_name"}
        thread_names = {e["args"]["name"] for e in events
                        if e.get("ph") == "M"
                        and e.get("name") == "thread_name"}
        assert names == {"thread_name"}
        assert any(n.startswith("sweep worker") for n in thread_names)
        assert any(e.get("ph") == "X" and e.get("name") == "sweep.point"
                   and e.get("tid", 0) != 0 for e in events)
        starts = [e for e in events if e.get("ph") == "s"]
        finishes = [e for e in events if e.get("ph") == "f"]
        assert len(starts) == len(SIZES) and len(finishes) == len(SIZES)
        assert all(e["name"] == "sweep.dispatch" for e in starts + finishes)


    def test_parent_spans_stay_on_the_main_track(self):
        run_plan(small_plan(), jobs=2, cache=None)
        parent = {r.name for r in SPANS.records if r.tid == 0}
        assert {"sweep.cache.probe", "sweep.run"} <= parent
        assert "sweep.point" not in parent


class TestDisabledProfiler:
    def test_pool_run_absorbs_nothing_into_a_disabled_profiler(self):
        run = run_plan(small_plan(), jobs=2, cache=None)
        assert run.telemetry["collected"] is True
        # the summary still counts every worker's spans
        assert all(w["spans"] > 0 for w in run.telemetry["workers"])
        assert SPANS.records == []
        assert SPANS._links == []
        assert SPANS._tracks == {}
        assert SPANS._agg == {}

    def test_owned_section_is_counted_but_not_absorbed(self):
        profiler = SpanProfiler()
        with SpanSectionCapture(profiler) as capture:
            with profiler("sweep.point"):
                pass
        telemetry = build_point_telemetry(
            TraceContext(run_id="abc", point_index=0),
            capture.section, busy_ns=1000)
        telemetry["worker"]["pid"] = os.getpid() + 1
        doc = merge_run_telemetry(
            "abc", [telemetry], ["miss"], ["daxpy:96"], [0],
            elapsed_seconds=1.0, profiler=profiler,
            registry=MetricsRegistry())
        assert profiler.records == [] and profiler._links == []
        assert doc["workers"][0]["spans"] == 1


# ----------------------------------------------------------------------
# flight recorder + fault injection
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_is_bounded_and_counts_everything(self):
        ring = FlightRecorder(capacity=4)
        for i in range(10):
            ring.note("test", "tick", i=i)
        assert len(ring) == 4
        assert ring.total == 10
        assert [r["i"] for r in ring.records()] == [6, 7, 8, 9]
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_dump_writes_ring_and_reason(self, tmp_path):
        ring = FlightRecorder(capacity=8)
        ring.note("point", "begin", point="daxpy:96")
        path = ring.dump("unit-test", point="SweepPoint(daxpy:96)",
                         directory=str(tmp_path), extra_field=7)
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["reason"] == "unit-test"
        assert doc["point"] == "SweepPoint(daxpy:96)"
        assert doc["pid"] == os.getpid()
        assert doc["extra_field"] == 7
        assert doc["records"][0]["point"] == "daxpy:96"

    def test_maybe_fault_is_inert_without_matching_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISTTRACE_CRASH", raising=False)
        monkeypatch.delenv("REPRO_DISTTRACE_KILL", raising=False)
        maybe_fault("daxpy:96")
        monkeypatch.setenv("REPRO_DISTTRACE_CRASH", "daxpy:8192")
        maybe_fault("daxpy:96")  # label mismatch: still inert

    def test_point_crash_dumps_flight_and_names_the_point(
            self, monkeypatch, flightrec_dir):
        monkeypatch.setenv("REPRO_DISTTRACE_CRASH", "daxpy:192")
        with pytest.raises(SweepPointError) as excinfo:
            run_plan(small_plan(), jobs=1, cache=None)
        message = str(excinfo.value)
        assert "daxpy:192" in message
        assert "flight-recorder dump" in message
        dumps = sorted(flightrec_dir.glob("flight-*.json"))
        assert dumps, "worker-side crash must leave a flight dump"
        doc = json.loads(dumps[-1].read_text())
        assert doc["reason"] == "point-exception"
        assert "daxpy" in doc["point"]
        assert doc["records"]

    def test_pool_point_crash_names_the_point_and_leaves_no_workers(
            self, monkeypatch, flightrec_dir):
        monkeypatch.setenv("REPRO_DISTTRACE_CRASH", "daxpy:192")
        with pytest.raises(SweepPointError, match="daxpy:192"):
            run_plan(small_plan(), jobs=2, cache=None)
        assert multiprocessing.active_children() == []

    def test_worker_death_dumps_parent_flight_naming_inflight_points(
            self, monkeypatch, flightrec_dir):
        monkeypatch.setenv("REPRO_DISTTRACE_KILL", "daxpy:192")
        with pytest.raises(SweepError) as excinfo:
            run_plan(small_plan(), jobs=2, cache=None)
        message = str(excinfo.value)
        assert "sweep worker died" in message
        assert "daxpy:192" in message
        assert "flight-recorder dump" in message
        dumps = sorted(flightrec_dir.glob("flight-*.json"))
        assert dumps, "parent must dump its ring on worker death"
        docs = [json.loads(p.read_text()) for p in dumps]
        assert any(d["reason"] == "worker-death" for d in docs)
        parent = next(d for d in docs if d["reason"] == "worker-death")
        assert parent["pid"] == os.getpid()
        # the dump names the in-flight points by repr
        assert "daxpy" in str(parent["point"])
        assert any("192" in repr_ for repr_ in parent["in_flight"])

    def test_sweep_point_error_survives_pickling(self):
        import pickle
        err = SweepPointError("sweep point daxpy:96 failed: boom")
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, SweepPointError)
        assert str(clone) == str(err)


# ----------------------------------------------------------------------
# span section capture: owned vs inline
# ----------------------------------------------------------------------
class TestSpanSectionCapture:
    def test_owned_mode_restores_profiler_exactly(self):
        profiler = SpanProfiler()
        assert not profiler.enabled
        with profiler("outer"):
            pass  # disabled: no record
        with SpanSectionCapture(profiler) as capture:
            with profiler("sweep.point", kernel="daxpy", n=96):
                with profiler("engine.compile"):
                    pass
        section = capture.section
        assert section["mode"] == "owned"
        assert [r["name"] for r in section["records"]] == [
            "sweep.point", "engine.compile"]
        assert section["records"][0]["parent"] == -1
        assert section["records"][1]["parent"] == 0
        assert section["records"][0]["depth"] == 0
        assert section["records"][1]["depth"] == 1
        assert section["records"][0]["attrs"] == {"kernel": "daxpy",
                                                  "n": 96}
        assert set(section["aggregates"]) == {"sweep.point",
                                              "engine.compile"}
        # exact restore: disabled again, nothing retained
        assert not profiler.enabled
        assert profiler.records == []
        assert profiler._agg == {}
        assert profiler.dropped == 0

    def test_inline_mode_slices_without_disturbing_live_profiler(self):
        profiler = SpanProfiler()
        profiler.enable()
        with profiler("selfprofile.outer"):
            pass
        with SpanSectionCapture(profiler) as capture:
            with profiler("sweep.point"):
                pass
        section = capture.section
        assert section["mode"] == "inline"
        assert [r["name"] for r in section["records"]] == ["sweep.point"]
        # the live profiler keeps everything: pre-existing + new spans
        assert [r.name for r in profiler.records] == [
            "selfprofile.outer", "sweep.point"]
        assert profiler.enabled

    def test_inline_sections_are_not_reabsorbed_by_merge(self):
        profiler = SpanProfiler()
        registry = MetricsRegistry()
        profiler.enable()
        with SpanSectionCapture(profiler) as capture:
            with profiler("sweep.point"):
                pass
        telemetry = build_point_telemetry(
            TraceContext(run_id="abc", point_index=0),
            capture.section, busy_ns=1000)
        before = len(profiler.records)
        doc = merge_run_telemetry(
            "abc", [telemetry], ["miss"], ["daxpy:96"], [None],
            elapsed_seconds=1.0, profiler=profiler, registry=registry)
        assert len(profiler.records) == before  # no double absorption
        assert doc["workers"][0]["spans"] == 1

    def test_inline_sections_from_another_pid_are_absorbed(self):
        # a pool worker forked from an enabled parent inherits the
        # enabled profiler, so its sections are inline; its records are
        # not in the parent's profiler and must be absorbed
        profiler = SpanProfiler()
        profiler.enable()
        with SpanSectionCapture(profiler) as capture:
            with profiler("sweep.point"):
                pass
        assert capture.section["mode"] == "inline"
        telemetry = build_point_telemetry(
            TraceContext(run_id="abc", point_index=0),
            capture.section, busy_ns=1000)
        worker = os.getpid() + 1
        telemetry["worker"]["pid"] = worker
        before = len(profiler.records)
        merge_run_telemetry(
            "abc", [telemetry], ["miss"], ["daxpy:96"], [0],
            elapsed_seconds=1.0, profiler=profiler,
            registry=MetricsRegistry())
        assert len(profiler.records) == before + 1
        assert profiler.records[-1].tid == worker
        assert len(profiler._links) == 1

    def test_absorb_remote_drops_oversized_sections_whole(self):
        profiler = SpanProfiler(max_records=2)
        section = {
            "records": [
                {"name": f"s{i}", "start_ns": i, "dur_ns": 1,
                 "depth": 0, "parent": -1}
                for i in range(3)
            ],
            "aggregates": {"s0": [3, 3, 0]},
            "dropped": 1,
        }
        absorbed = profiler.absorb_remote(section, track=42,
                                          track_name="sweep worker 42")
        assert absorbed == 0
        assert profiler.records == []
        assert profiler.dropped == 4  # 3 undropped records + 1 carried
        assert profiler._agg["s0"] == [3, 3, 0]  # aggregates still merge
        assert profiler._tracks[42] == "sweep worker 42"


# ----------------------------------------------------------------------
# run ids
# ----------------------------------------------------------------------
class TestRunId:
    def test_run_id_is_short_and_unique(self):
        ids = {new_run_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 12 for i in ids)
