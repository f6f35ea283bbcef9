"""In-memory span recorder for the benchmark's traced runs.

A span is one call into a layer's public function, timed from the
benchmark's side: :func:`install` replaces those functions on their
classes and modules with wrappers that record, per layer, how many
outermost calls were made, their inclusive time, and the layer's self
time (inclusive time minus the time spent in child spans of any other
layer).  Nothing in ``src/`` is edited; the wrappers exist only in a
process that calls :func:`install`, so the timed (untraced) runs pay
nothing.

Wrappers must go onto the classes before any machine is built:
:class:`~repro.sim.system.MemorySystem` binds ``dram.access_completes``
and the XMem prefetcher binds ``amu.lookup`` at construction, so a
wrapper installed later would never see those calls.

Every thread keeps its own span stack and table (the serve workload
records from HTTP handler and scheduler threads at once); :meth:`
Recorder.table` merges them.  Serve pool workers are separate
processes: :func:`traced_worker_main` installs the wrappers in each
worker and dumps its table to a file after every job.

cProfile is not used: it charges every Python call, so it slowed the
fig4 protocol roughly threefold and shifted the proportions.
"""

from __future__ import annotations

import functools
import json
import os
import re
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: Where traced serve workers write their span tables (set by the
#: serve workload before it boots a traced server).
SPANS_DIR_ENV = "BENCH_SPANS_DIR"


class _ThreadState:
    def __init__(self) -> None:
        #: Open spans, innermost last: ``[layer, child_seconds]``.
        self.stack: List[list] = []
        #: layer -> ``[outermost calls, inclusive s, self s]``.
        self.table: Dict[str, list] = {}
        #: Free-form event counters (cache hits, ...).
        self.counts: Dict[str, float] = {}


class Recorder:
    """Span and counter tables, one per recording thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _open(self, layer: str):
        """Push a span; returns ``(state, frame, outer)``.  ``outer``
        is False for a call nested directly inside a span of the same
        layer (``TraceEngine.run`` handing over to ``run_packed``):
        such a call adds self time but no call and no inclusive time.
        """
        state = self._state()
        stack = state.stack
        outer = not stack or stack[-1][0] != layer
        frame = [layer, 0.0]
        stack.append(frame)
        return state, frame, outer

    @staticmethod
    def _close(state: _ThreadState, frame: list, outer: bool,
               new_call: bool, elapsed: float) -> None:
        state.stack.pop()
        row = state.table.get(frame[0])
        if row is None:
            row = state.table[frame[0]] = [0, 0.0, 0.0]
        if outer:
            row[0] += new_call
            row[1] += elapsed
        row[2] += elapsed - frame[1]
        if state.stack:
            state.stack[-1][1] += elapsed

    def span(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of ``layer``."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state, frame, outer = recorder._open(layer)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(state, frame, outer, True,
                                time.perf_counter() - t0)

        return wrapper

    def generator_span(self, layer: str, fn: Callable) -> Callable:
        """A generator function wrapped so that every step is a span.

        Suite access streams are generators the engine pulls from
        inside its own loop; timing only the call that creates the
        generator would charge the stream's work to the engine.  The
        whole stream counts as one call.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            first = True
            while True:
                state, frame, outer = recorder._open(layer)
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    recorder._close(state, frame, outer, first,
                                    time.perf_counter() - t0)
                    first = False
                yield item

        return wrapper

    def add(self, layer: str, seconds: float) -> None:
        """Record a duration measured between two calls (no stack)."""
        row = self._state().table.setdefault(layer, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += seconds
        row[2] += seconds

    def count(self, name: str, n: float = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    def table(self) -> dict:
        """Every thread's spans and counters, merged:
        ``{"spans": {layer: {"calls", "total_s", "self_s"}},
        "counts": {name: n}}``."""
        with self._lock:
            states = list(self._states)
        return merge_tables([
            {"spans": {layer: {"calls": calls, "total_s": total,
                               "self_s": self_s}
                       for layer, (calls, total, self_s)
                       in state.table.items()},
             "counts": state.counts}
            for state in states])


def merge_tables(tables: List[dict]) -> dict:
    """Sum :meth:`Recorder.table` results (server plus workers)."""
    spans: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, float] = {}
    for table in tables:
        for layer, row in table["spans"].items():
            out = spans.setdefault(
                layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in out:
                out[key] += row[key]
        for name, n in table["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return {"spans": spans, "counts": counts}


def _patch(owner, name: str, wrapper_factory) -> None:
    setattr(owner, name, wrapper_factory(getattr(owner, name)))


def install() -> Recorder:
    """Wrap every layer boundary in this process; returns the recorder.

    The layers are named after modules.  Besides plain spans, three
    boundaries record derived quantities:

    * ``TraceCache.load`` counts hits and misses of enabled caches;
    * ``RunScheduler.submit`` stamps each new point's submission time,
      and ``WorkerProcess.submit`` turns it into ``serve.queue_wait``;
    * ``WorkerProcess.submit``/``recv`` bracket one pool round trip,
      kept as ``serve.pipe`` (the worker's own execution time is
      subtracted when the layers are folded).
    """
    from repro.core import amu
    from repro.cpu import engine, tiers
    from repro.dram import system as dram_system
    from repro.scenarios import spec as scenario_spec
    from repro.serve import app, jobs, pool, scenarios, workspace
    from repro.sim import corun, runner
    from repro.sim import system as sim_system
    from repro.workloads.polybench import common as polybench
    from repro.workloads.suite import spec as suite_spec
    from repro.xos import loader

    rec = Recorder()
    plain = [
        ("cpu", tiers, "run_tier"),
        ("cpu", engine.TraceEngine, "run"),
        ("cpu", engine.TraceEngine, "run_packed"),
        ("mem", sim_system.MemorySystem, "access"),
        ("dram", dram_system.DramSystem, "access"),
        ("dram", dram_system.DramSystem, "access_completes"),
        ("core", amu.AtomManagementUnit, "lookup"),
        ("xos", loader.Process, "translate"),
        ("sim.corun", corun.CorunSystem, "run"),
        ("workloads", polybench.Kernel, "build_packed"),
        ("scenarios", scenario_spec, "compile_canonical"),
        ("sim.runner.cache_store", runner.TraceCache, "store"),
        ("serve.scenario_build", scenarios.ScenarioStore, "get_or_build"),
        ("serve.workspace_write", workspace.ArtifactWorkspace,
         "save_point"),
        ("serve.workspace_write", workspace.ArtifactWorkspace, "save_run"),
        ("serve.workspace_write", workspace.ArtifactWorkspace,
         "save_scenario"),
        ("serve.workspace_read", workspace.ArtifactWorkspace, "load_point"),
        ("serve.workspace_read", workspace.ArtifactWorkspace, "load_run"),
        ("serve.workspace_read", workspace.ArtifactWorkspace,
         "load_scenarios"),
        ("serve.http", app.ServeHandler, "_dispatch"),
        # Stream and long-poll handlers block here; as a child span the
        # wait is kept out of serve.http's self time.
        ("serve.wait", jobs.RunScheduler, "wait_events"),
    ]
    for layer, owner, name in plain:
        _patch(owner, name, functools.partial(rec.span, layer))
    _patch(suite_spec.SuiteWorkload, "trace",
           functools.partial(rec.generator_span, "workloads"))

    load_span = rec.span("sim.runner.cache_load", runner.TraceCache.load)

    def load(cache, key):
        recording = load_span(cache, key)
        if cache.root is not None:
            rec.count("cache_hits" if recording is not None
                      else "cache_misses")
        return recording

    runner.TraceCache.load = load

    submitted: Dict[tuple, float] = {}
    dispatched: Dict[int, float] = {}
    scheduler_submit = jobs.RunScheduler.submit
    worker_submit = pool.WorkerProcess.submit
    worker_recv = pool.WorkerProcess.recv

    def submit_run(scheduler, points, out_dir=None):
        t0 = time.perf_counter()
        run = scheduler_submit(scheduler, points, out_dir=out_dir)
        for key in run.point_keys:
            submitted.setdefault(key, t0)
        return run

    def submit_job(worker, key, point, engine_tier):
        now = time.perf_counter()
        if key in submitted:
            rec.add("serve.queue_wait", now - submitted.pop(key))
        dispatched[id(worker)] = now
        return worker_submit(worker, key, point, engine_tier)

    def recv_reply(worker):
        reply = worker_recv(worker)
        t0 = dispatched.pop(id(worker), None)
        if t0 is not None:
            rec.add("serve.pipe", time.perf_counter() - t0)
        return reply

    jobs.RunScheduler.submit = submit_run
    pool.WorkerProcess.submit = submit_job
    pool.WorkerProcess.recv = recv_reply
    return rec


def traced_worker_main(conn, cache_root, cache_disabled) -> None:
    """Serve pool worker entry point with spans (spawn target).

    Installs the wrappers in the fresh worker process, runs the stock
    worker loop, and rewrites ``worker-<pid>.json`` under
    ``$BENCH_SPANS_DIR`` after every job, before the reply goes
    out, so a worker terminated at shutdown loses nothing.
    """
    rec = install()
    out = Path(os.environ[SPANS_DIR_ENV]) / f"worker-{os.getpid()}.json"
    from repro.serve import pool
    from repro.sim import runner

    execute = rec.span("serve.worker_exec", runner.execute_point_job)

    def execute_and_dump(*args, **kwargs):
        try:
            return execute(*args, **kwargs)
        finally:
            out.write_text(json.dumps(rec.table()))

    runner.execute_point_job = execute_and_dump
    pool.pool_worker_main(conn, cache_root, cache_disabled)


def read_worker_tables(directory: Path) -> List[dict]:
    """The span tables traced serve workers left in ``directory``."""
    return [json.loads(path.read_text())
            for path in sorted(directory.glob("worker-*.json"))]


# ---------------------------------------------------------------------------
# Folding spans and stats counters into per-layer metrics
# ---------------------------------------------------------------------------

#: Stats-snapshot groups, single-core machines and co-run systems alike.
_ENGINE = r"engine"
_CORUN_CORE = r"core\d+\.core"
_L1 = r"cache\.l1|core\d+\.l1"
_LLC = r"cache\.l3|llc"
_MSHR = r"engine\.mshr|core\d+\.mshr"
_DRAM = r"dram"
_AMU = r"amu|core\d+\.amu"
_ALB = r"amu\.alb|core\d+\.amu\.alb"
#: Groups whose ``mem_accesses`` count a machine's simulated accesses.
ACCESSES = f"{_ENGINE}|{_CORUN_CORE}"

#: Span-derived metrics of each cross-checked layer: reported as -1
#: when the layer's span counts disagree with the stats counters.
SPAN_METRICS = {
    "cpu": ("cpu.self_s", "cpu.ns_per_access"),
    "mem": ("mem.self_s", "mem.calls"),
    "dram": ("dram.self_s", "dram.calls"),
    "core": ("core.self_s", "core.amu_lookups"),
    "xos": ("xos.self_s", "xos.translations"),
    "sim.corun": ("sim.corun.self_s", "sim.corun.ns_per_access"),
    "sim.runner": ("sim.runner.cache_store_s", "sim.runner.cache_load_s",
                   "sim.runner.cache_hits", "sim.runner.cache_misses"),
}


def stat_sum(snapshots: List[dict], pattern: str, field: str) -> float:
    """``field`` summed over the snapshot groups named by ``pattern``."""
    return sum(groups[name][field] for groups in snapshots
               for name in groups if re.fullmatch(pattern, name))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def fold(table: dict, snapshots: List[dict], cache_lookups: int,
         translates: bool) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics plus the layers whose spans went unobserved.

    ``snapshots`` are the stats snapshots of every machine the traced
    process ran, ``cache_lookups`` the trace-cache hits plus misses its
    manifests and build replies report, and ``translates`` whether its
    engines translate through ``xos`` (Use Case 2 does, every time).
    Each cross-checked layer's span count must equal what those
    counters say it did; a layer that disagrees was not (fully) seen
    by its wrappers, and its span metrics read -1 rather than a time
    that would pass for a measurement.
    """
    spans = table["spans"]
    counts = table["counts"]

    def calls(layer: str) -> float:
        return spans.get(layer, {}).get("calls", 0)

    def self_s(layer: str) -> float:
        return spans.get(layer, {}).get("self_s", 0.0)

    def total_s(layer: str) -> float:
        return spans.get(layer, {}).get("total_s", 0.0)

    accesses = stat_sum(snapshots, _ENGINE, "mem_accesses")
    corun_accesses = stat_sum(snapshots, _CORUN_CORE, "mem_accesses")
    dram_accesses = (stat_sum(snapshots, _DRAM, "reads")
                     + stat_sum(snapshots, _DRAM, "writes"))
    row_accesses = sum(stat_sum(snapshots, _DRAM, f)
                       for f in ("row_hits", "row_closed", "row_conflicts"))
    hits = counts.get("cache_hits", 0)
    misses = counts.get("cache_misses", 0)
    expected = {
        "cpu": (calls("cpu"),
                sum(1 for groups in snapshots if "engine" in groups)),
        "mem": (calls("mem"), accesses),
        "dram": (calls("dram"), dram_accesses),
        "core": (calls("core"), stat_sum(snapshots, _AMU, "lookups")),
        "xos": (calls("xos"), accesses if translates else 0),
        "sim.corun": (calls("sim.corun"),
                      sum(1 for groups in snapshots if "llc" in groups)),
        "sim.runner": (hits + misses, cache_lookups),
    }
    metrics = {
        "cpu.self_s": self_s("cpu"),
        "cpu.ns_per_access": _ratio(self_s("cpu") * 1e9, accesses),
        "cpu.accesses": accesses,
        "cpu.l1_hit_rate": _ratio(stat_sum(snapshots, _L1, "hits"),
                                  stat_sum(snapshots, _L1, "accesses")),
        "mem.self_s": self_s("mem"),
        "mem.calls": calls("mem"),
        "mem.llc_miss_rate": _ratio(stat_sum(snapshots, _LLC, "misses"),
                                    stat_sum(snapshots, _LLC, "accesses")),
        "mem.prefetch_accuracy": _ratio(
            stat_sum(snapshots, _LLC, "prefetch_hits"),
            stat_sum(snapshots, _LLC, "prefetch_fills")),
        "mem.mshr_full_stalls": stat_sum(snapshots, _MSHR, "full_stalls"),
        "dram.self_s": self_s("dram"),
        "dram.calls": calls("dram"),
        "dram.writes": stat_sum(snapshots, _DRAM, "writes"),
        "dram.row_hit_rate": _ratio(stat_sum(snapshots, _DRAM, "row_hits"),
                                    row_accesses),
        "core.self_s": self_s("core"),
        "core.amu_lookups": calls("core"),
        "core.alb_hit_rate": _ratio(stat_sum(snapshots, _ALB, "hits"),
                                    stat_sum(snapshots, _ALB, "lookups")),
        "xos.self_s": self_s("xos"),
        "xos.translations": calls("xos"),
        "sim.corun.self_s": self_s("sim.corun"),
        "sim.corun.ns_per_access": _ratio(self_s("sim.corun") * 1e9,
                                          corun_accesses),
        "workloads.self_s": self_s("workloads"),
        "scenarios.compile_s": total_s("scenarios"),
        "sim.runner.cache_store_s": total_s("sim.runner.cache_store"),
        "sim.runner.cache_load_s": total_s("sim.runner.cache_load"),
        "sim.runner.cache_hits": hits,
        "sim.runner.cache_misses": misses,
        "serve.scenario_build_s": total_s("serve.scenario_build"),
        "serve.queue_wait_s": total_s("serve.queue_wait"),
        # Pickling, pipe transfer and wake-up: the pool round trip
        # minus the worker's own execution of the job.
        "serve.pipe_roundtrip_s": max(
            0.0, total_s("serve.pipe") - total_s("serve.worker_exec")),
        "serve.workspace_write_s": total_s("serve.workspace_write"),
        "serve.workspace_read_s": total_s("serve.workspace_read"),
        "serve.http_s": self_s("serve.http"),
    }
    unobserved = sorted(layer for layer, (seen, want) in expected.items()
                        if seen != want)
    for layer in unobserved:
        for name in SPAN_METRICS[layer]:
            metrics[name] = -1
    return metrics, unobserved
