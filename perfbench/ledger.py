"""Per-layer ledger for traced benchmark runs.

Wraps the public functions of each ``repro`` layer from outside the
program: every call becomes a span (name, start, end, parent) kept in
memory per thread, and every layer accumulates ``calls``, ``busy``
(outermost-call wall time) and ``self`` (busy minus the time of nested
layer spans).  Importing this module patches nothing; :meth:`Ledger.install`
is the only way wrappers get in, and :func:`installed_count` lets an
untraced run prove it has none.

A *root* span marks a region of work the ledger must explain: the timed
work of a batch iteration, one sweep point in a pool worker, one job in
the server.  ``coverage`` is the share of root time spent inside named
layer spans.

Pool workers are forked from a traced parent, so they inherit the
wrappers; :meth:`Ledger.after_fork` clears the inherited totals, and a
worker writes its own ledger file after every point it simulates.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time

#: attribute set on every wrapper this module installs
MARK = "__perfbench_layer__"

#: spans kept per process; totals stay exact past the cap
SPAN_CAP = 50_000

#: (layer name, module, attribute path, kind); kind "root" marks a
#: region to explain, "gen" a generator timed per resumption
TARGETS = (
    ("cpu.execute", "repro.cpu.core", "Core.execute", "span"),
    ("cpu.timing", "repro.cpu.timing", "phase_cycles", "span"),
    ("engine.bind", "repro.engine.plan", "SymbolicPlan.bind", "span"),
    ("engine.execute_plan", "repro.engine.datapath",
     "BatchDatapath.execute_plan", "span"),
    ("engine.execute_single", "repro.engine.datapath",
     "BatchDatapath.execute_single", "span"),
    ("engine.execute_single", "repro.engine.datapath",
     "BatchDatapath.execute_single_c", "span"),
    ("measure.kernel", "repro.measure.runner", "measure_kernel", "span"),
    ("machine.build", "repro.machine.ref", "MachineRef.build", "span"),
    ("roofline.ert", "repro.roofline.ert", "discover_ceilings", "span"),
    ("roofline.place", "repro.roofline.hierarchical",
     "AnalyzeResult.to_json_doc", "span"),
    ("sweep.key", "repro.sweep.cache", "point_key", "span"),
    ("sweep.cache.lookup", "repro.sweep.cache", "SweepCache.lookup", "span"),
    ("sweep.cache.store", "repro.sweep.cache", "SweepCache.store", "span"),
    ("sweep.serialize", "repro.sweep.serialize", "measurement_to_payload",
     "span"),
    ("sweep.serialize", "repro.sweep.serialize", "payload_to_measurement",
     "span"),
    ("obs.merge", "repro.obs.remote", "merge_run_telemetry", "span"),
    ("pool.submit", "repro.sweep.backends.localpool",
     "LocalPoolBackend.submit", "gen"),
    ("sweep.point", "repro.sweep.executor", "simulate_point", "root"),
    ("serve.execute", "repro.serve.server", "RooflineServer._execute",
     "root"),
)

#: layers whose ``build``/``prepare`` is overridden per subclass
SUBCLASS_TARGETS = (
    ("kernels.build", "repro.kernels.base", "Kernel", "build"),
    ("measure.protocol", "repro.measure.protocol", "Protocol", "prepare"),
)

#: every layer the ledger reports, in report order
LAYERS = tuple(dict.fromkeys(
    [t[0] for t in TARGETS] + [t[0] for t in SUBCLASS_TARGETS]))

#: counters the observing wrappers fill
COUNTERS = ("bound_hits", "bound_lookups", "cache_hits", "cache_lookups",
            "symbolic_hits", "symbolic_lookups", "pool_busy_s",
            "pool_capacity_s")


class _Thread:
    """One thread's open spans and totals (no lock on the hot path)."""

    __slots__ = ("ident", "stack", "active", "roots", "layers", "totals",
                 "counters", "covered_ns", "root_ns", "spans")

    def __init__(self) -> None:
        self.ident = threading.get_ident()
        self.stack = []  # frames: [name, kind, flag, index, nested, start]
        self.active = set()  # names open on the stack
        self.roots = self.layers = 0  # open root / layer spans
        self.totals = {}  # name -> [calls, busy_ns, self_ns]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.covered_ns = self.root_ns = 0
        self.spans = []  # [name, start_ns, end_ns, parent index]


class Ledger:
    """In-memory spans and per-layer totals for one process."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._installed = []  # (owner, attribute, original)
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads = []
        self._span_room = SPAN_CAP
        self.spans_dropped = 0
        self.is_worker = False

    def after_fork(self) -> None:
        self.reset()
        self.is_worker = True

    # -- recording ------------------------------------------------------
    def _thread(self) -> _Thread:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _Thread()
            with self._lock:
                self._threads.append(state)
        return state

    def enter(self, name: str, kind: str):
        """Open a span; returns its frame, or None when re-entrant."""
        state = self._thread()
        if name in state.active:
            return None
        state.active.add(name)
        if kind == "root":
            flag = state.roots == 0  # outermost root
            state.roots += 1
        else:
            flag = state.roots > 0 and state.layers == 0  # covers root time
            state.layers += 1
        stack = state.stack
        index = None
        if self._span_room > 0:
            self._span_room -= 1
            index = len(state.spans)
            parent = stack[-1][3] if stack else None
            state.spans.append([name, 0, 0, parent])
        else:
            self.spans_dropped += 1
        frame = [name, kind, flag, index, 0, 0]
        stack.append(frame)
        frame[5] = time.perf_counter_ns()
        return frame

    def leave(self, frame) -> None:
        end = time.perf_counter_ns()
        state = self._thread()
        stack = state.stack
        stack.pop()
        name, kind, flag, index, nested, start = frame
        duration = end - start
        state.active.discard(name)
        if index is not None:
            span = state.spans[index]
            span[1], span[2] = start, end
        if stack:
            stack[-1][4] += duration
        total = state.totals.get(name)
        if total is None:
            total = state.totals[name] = [0, 0, 0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - nested
        if kind == "root":
            state.roots -= 1
            if flag:
                state.root_ns += duration
        else:
            state.layers -= 1
            if flag:
                state.covered_ns += duration

    def count(self, **deltas) -> None:
        counters = self._thread().counters
        for key, value in deltas.items():
            counters[key] += value

    @contextlib.contextmanager
    def span(self, name: str, kind: str = "span"):
        """Record the ``with`` body as one span."""
        frame = self.enter(name, kind)
        try:
            yield
        finally:
            if frame is not None:
                self.leave(frame)

    # -- output -----------------------------------------------------------
    def to_doc(self) -> dict:
        with self._lock:
            threads = list(self._threads)
        doc = merge({"totals": t.totals, "counters": t.counters,
                     "covered_ns": t.covered_ns, "root_ns": t.root_ns,
                     "spans_dropped": 0} for t in threads)
        doc.update(pid=self.pid, spans_dropped=self.spans_dropped,
                   threads=[{"thread": t.ident, "spans": list(t.spans)}
                            for t in threads])
        return doc

    def write(self) -> str:
        """Write this process's ledger as ``ledger-<pid>.json``."""
        path = os.path.join(self.out_dir, f"ledger-{self.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.to_doc(), handle, separators=(",", ":"))
        os.replace(tmp, path)
        return path

    # -- installation -----------------------------------------------------
    def install(self) -> int:
        """Wrap every target; returns the number of bindings patched."""
        # load the layers repro imports lazily, so they are bound too
        import repro.kernels.registry  # noqa: F401
        import repro.serve.server  # noqa: F401
        import repro.sweep.backends.localpool  # noqa: F401
        import repro.sweep.backends.serial  # noqa: F401

        for name, module, path, kind in TARGETS:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, name, kind)
        for name, module, base, method in SUBCLASS_TARGETS:
            root = getattr(importlib.import_module(module), base)
            for cls in _subclasses(root):
                if method in vars(cls):
                    self._patch(cls, method, name, "span")
        self._observe_counters()
        os.register_at_fork(after_in_child=self.after_fork)
        return len(self._installed)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _patch(self, owner, attr: str, name: str, kind: str) -> None:
        original = vars(owner)[attr]
        if kind == "gen":
            wrapper = _gen_wrapper(self, name, original)
        else:
            wrapper = _span_wrapper(self, name, kind, original)
        self._rebind(owner, attr, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        """Replace ``original`` on ``owner`` and wherever a loaded
        ``repro`` module imported it by name."""
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))
        if isinstance(owner, type):
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._installed.append((mod, key, original))

    def _observe_counters(self) -> None:
        """Count hit ratios where the lookups happen."""
        from repro.engine.plan import PlanCache
        from repro.sweep import executor
        from repro.sweep.cache import HIT, SweepCache

        ledger = self
        get_bound = PlanCache.get_bound
        lookup = SweepCache.lookup  # already the sweep.cache.lookup span
        run_plan = executor.run_plan

        @functools.wraps(get_bound)
        def counted_get_bound(cache, bkey):
            plan = get_bound(cache, bkey)
            ledger.count(bound_lookups=1, bound_hits=plan is not None)
            return plan

        @functools.wraps(lookup)
        def counted_lookup(cache, key):
            payload, outcome = lookup(cache, key)
            ledger.count(cache_lookups=1, cache_hits=outcome == HIT)
            return payload, outcome

        @functools.wraps(run_plan)
        def observed_run_plan(*args, **kwargs):
            run = run_plan(*args, **kwargs)
            doc = run.plan_cache or {}
            workers = (run.telemetry.get("workers", [])
                       if run.backend == "pool" else [])
            ledger.count(
                symbolic_hits=doc.get("hits", 0),
                symbolic_lookups=doc.get("hits", 0) + doc.get("misses", 0),
                pool_busy_s=sum(w.get("busy_seconds", 0.0)
                                for w in workers),
                pool_capacity_s=len(workers) * run.stats.elapsed_seconds,
            )
            return run

        for owner, attr, original, wrapper in (
                (PlanCache, "get_bound", get_bound, counted_get_bound),
                (SweepCache, "lookup", lookup, counted_lookup),
                (executor, "run_plan", run_plan, observed_run_plan)):
            setattr(wrapper, MARK, attr)
            self._rebind(owner, attr, original, wrapper)


def _span_wrapper(ledger: Ledger, name: str, kind: str, fn):
    flush = kind == "root" and name == "sweep.point"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = ledger.enter(name, kind)
        if frame is None:
            return fn(*args, **kwargs)
        try:
            return fn(*args, **kwargs)
        finally:
            ledger.leave(frame)
            if flush and ledger.is_worker:
                ledger.write()

    setattr(wrapper, MARK, name)
    return wrapper


def _gen_wrapper(ledger: Ledger, name: str, fn):
    """Time a generator per resumption (each ``next`` is one span)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        try:
            while True:
                frame = ledger.enter(name, "span")
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    if frame is not None:
                        ledger.leave(frame)
                yield item
        finally:
            gen.close()

    setattr(wrapper, MARK, name)
    return wrapper


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _subclasses(cls):
    seen = [cls]
    for sub in cls.__subclasses__():
        seen.extend(_subclasses(sub))
    return seen


def installed_count() -> int:
    """Ledger wrappers reachable from the loaded ``repro`` modules."""
    found = set()
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("repro"):
            continue
        for value in list(vars(mod).values()):
            if getattr(value, MARK, None):
                found.add(id(value))
            if isinstance(value, type):
                for member in vars(value).values():
                    if getattr(member, MARK, None):
                        found.add(id(member))
    return len(found)


def merge(docs) -> dict:
    """Sum ledger documents (one per thread or per process)."""
    totals = {}
    counters = dict.fromkeys(COUNTERS, 0)
    covered = root = dropped = 0
    for doc in docs:
        for name, (calls, busy, self_ns) in doc["totals"].items():
            total = totals.setdefault(name, [0, 0, 0])
            total[0] += calls
            total[1] += busy
            total[2] += self_ns
        for key in COUNTERS:
            counters[key] += doc["counters"].get(key, 0)
        covered += doc["covered_ns"]
        root += doc["root_ns"]
        dropped += doc["spans_dropped"]
    return {"totals": totals, "counters": counters, "covered_ns": covered,
            "root_ns": root, "spans_dropped": dropped}


def read_dir(directory: str):
    """Every ledger document written under ``directory``."""
    docs = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("ledger-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry), encoding="utf-8") as fh:
                docs.append(json.load(fh))
    return docs
