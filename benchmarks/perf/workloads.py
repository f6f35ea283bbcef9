"""The four workloads of the performance benchmark.

A workload turns the seed into inputs and then runs *operations*, the
unit the benchmark times, checks and repeats.  :meth:`Workload.run`
returns one :class:`OpResult`: the operation's own timed region, the
latency of each *point* in it (a result a user waits for), a sha256 of
each point's stats subtree, and the simulated memory accesses it
performed.  Everything a workload does before its first operation is
set-up, timed by the benchmark from process start.

The seed only generates inputs and never their size, so every seed
costs the same work:

* ``fig4-gemm`` and ``corun-mix`` run fixed inputs; the seed orders
  their operations;
* ``uc2-placement`` reseeds the suite models' access streams;
* ``serve-batch`` reseeds the twelve workload specs it serves.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import spans


def stats_digest(stats: object) -> str:
    """sha256 of a stats subtree in canonical (sorted-key) JSON."""
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class OpResult:
    """What one operation measured and produced."""

    #: The operation's timed region, seconds.
    wall: float
    #: Point name -> seconds from the operation's start to its result.
    points: Dict[str, float]
    #: Point name -> :func:`stats_digest` of its stats.
    digests: Dict[str, str]
    #: Simulated memory accesses over every machine the operation ran.
    accesses: int
    #: Point name -> why the point failed a check.
    errors: Dict[str, str] = field(default_factory=dict)
    #: Workload-specific timings (serve-batch: ``archive_fetch_s``).
    extra: Dict[str, float] = field(default_factory=dict)


class Workload:
    """One benchmark workload (see the module docstring)."""

    name = ""
    #: Whether the engines translate through ``repro.xos`` (once per
    #: access), which the traced cross-check of ``xos`` relies on.
    translates = False
    #: Operations one process may run (None: as many as fit).
    ops_per_process: Optional[int] = None

    def __init__(self, seed: int, work_dir: Path, traced: bool) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.traced = traced
        #: Stats snapshots of every machine run in this process and its
        #: workers (set-up included), for the traced cross-checks.
        self.snapshots: List[dict] = []
        #: Trace-cache hits plus misses the runs report.
        self.cache_lookups = 0
        #: Span tables of traced serve workers.
        self.worker_tables: List[dict] = []

    def prepare(self) -> None:
        """Everything before the first operation (imports included)."""

    def ops(self) -> List[str]:
        """Operation ids, one round, in the seed's order."""
        raise NotImplementedError

    def run(self, op: str) -> OpResult:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever :meth:`prepare` or :meth:`run` started."""

    def _shuffled(self, ops: List[str]) -> List[str]:
        random.Random(self.seed).shuffle(ops)
        return ops

    def _result(self, point: str, wall: float, stats: object,
                snapshots: List[dict]) -> OpResult:
        """An operation that is its own single point."""
        self.snapshots.extend(snapshots)
        return OpResult(wall=wall, points={point: wall},
                        digests={point: stats_digest(stats)},
                        accesses=_accesses(snapshots))


def _accesses(snapshots: List[dict]) -> int:
    return int(spans.stat_sum(snapshots, spans.ACCESSES, "mem_accesses"))


class Fig4Gemm(Workload):
    """Use Case 1: the fig4 gemm protocol of ``packed_trace.txt``.

    Each operation is one tile point: trace generation (in-memory memo
    cleared, disk cache off) plus the baseline and XMem machines, on
    the default engine tier.
    """

    name = "fig4-gemm"
    N = 80
    TILES = (10, 20, 40, 80)

    def prepare(self) -> None:
        from repro.sim import runner
        self.runner = runner

    def ops(self) -> List[str]:
        return self._shuffled([f"gemm-n{self.N}-t{t}" for t in self.TILES])

    def run(self, op: str) -> OpResult:
        runner = self.runner
        tile = int(op.rsplit("-t", 1)[1])
        runner._MEMO.clear()
        t0 = time.perf_counter()
        result = runner.run_point(runner.SimPoint("gemm", self.N, tile),
                                  collect=True)
        wall = time.perf_counter() - t0
        return self._result(op, wall, result.stats,
                            list(result.stats.values()))


class Uc2Placement(Workload):
    """Use Case 2: DRAM placement, ``pick_mapping`` off.

    Each operation is one (suite model, system) run, 40k accesses on
    the object-event engine loop with ``xos`` translation; the three
    systems of a model make one Figure 7/8 column.
    """

    name = "uc2-placement"
    translates = True
    SUITE = ("lbm", "mcf")
    SYSTEMS = ("baseline", "xmem", "ideal")
    ACCESSES = 40_000

    def prepare(self) -> None:
        from repro.sim import usecase2
        from repro.workloads.suite import BY_NAME
        self.usecase2 = usecase2
        self.models = {}
        for name in self.SUITE:
            model = dataclasses.replace(BY_NAME[name],
                                        accesses=self.ACCESSES)
            if self.seed:
                # The suite seeds a model's access stream from its
                # name: a renamed model is the same workload with a
                # fresh stream.
                model = dataclasses.replace(model,
                                            name=f"{name}-s{self.seed}")
            self.models[model.name] = model

    def ops(self) -> List[str]:
        return self._shuffled([f"{model}/{system}"
                               for model in self.models
                               for system in self.SYSTEMS])

    def run(self, op: str) -> OpResult:
        model, system = op.split("/")
        uc2 = self.usecase2
        t0 = time.perf_counter()
        result = uc2.run_system(self.models[model], system,
                                mapping=uc2.XMEM_MAPPING, collect=True)
        wall = time.perf_counter() - t0
        return self._result(op, wall, result.stats, [result.stats])


class CorunMix(Workload):
    """The four-tenant co-run mix of ``corun_packed.txt``.

    Set-up generates the four recordings; each operation builds a
    full-size 4-core system and runs the mix in one mode (``xmem``
    puts XMem on tenant 0).
    """

    name = "corun-mix"
    TENANTS = ("gemm", "trmm", "2mm", "3mm")
    N = 96
    TILE = 48
    MODES = ("baseline", "xmem")

    def prepare(self) -> None:
        from repro.sim.config import scaled_config
        from repro.sim.corun import CorunSystem
        from repro.sim.runner import get_recording
        self.system_class = CorunSystem
        self.config = scaled_config(1)
        self.recordings = [get_recording(k, self.N, self.TILE)
                           for k in self.TENANTS]

    def ops(self) -> List[str]:
        return self._shuffled(list(self.MODES))

    def run(self, op: str) -> OpResult:
        t0 = time.perf_counter()
        system = self.system_class(
            self.config, len(self.TENANTS),
            xmem_cores=(0,) if op == "xmem" else ())
        traces = [rec.replay(core.xmemlib) if core.xmemlib is not None
                  else rec.packed.without_xmem()
                  for core, rec in zip(system.cores, self.recordings)]
        system.run(traces)
        wall = time.perf_counter() - t0
        snapshot = system.stats_snapshot()
        return self._result(op, wall, snapshot, [snapshot])


class ServeBatch(Workload):
    """One closed-loop client against a fresh in-process ``repro serve``.

    Set-up boots the server (process executor, two workers, a fresh
    trace-cache directory and workspace), waits until both pool
    workers are alive, and builds 20 scenarios: gemm n=48 at eight
    tiles plus twelve seeded workload specs.  The operation submits
    one run of all 20, follows it with ``?stream=1`` (a point's
    latency runs from submission to its done event), restarts the
    server on the same workspace and fetches the archived run, whose
    documents must equal the live ones.

    Why n=48, not the n=64 of ``serve_throughput.txt``: a run is five
    children with one batch each (five set-ups feed the ``setup_s``
    median).  On two x86_64 vCPUs an n=64 batch took 6.5 s, so a run
    would measure about 32 s against the 20 s ``run_seconds`` of
    ``BENCHMARK.json``; an n=48 batch takes about 2 s.

    Each operation needs a fresh server, directories and process: on
    a server that had already run the batch, the run would be
    deduplicated, and a second server in the same process would start
    with the first one's heap and in-process trace memo.
    """

    name = "serve-batch"
    ops_per_process = 1
    server: Optional[tuple] = None
    WORKERS = 2
    GEMM_N = 48
    TILES = (4, 6, 8, 12, 16, 24, 32, 48)
    SPECS = ("chase-mix", "hotcold", "streamgrid")
    SEEDS_PER_SPEC = 4

    def prepare(self) -> None:
        from repro.scenarios.registry import get_example
        from repro.serve import app, pool
        self.app = app
        if self.traced:
            pool.pool_worker_main = spans.traced_worker_main
            (self.work_dir / "spans").mkdir()
            os.environ[spans.SPANS_DIR_ENV] = str(self.work_dir / "spans")
        rng = random.Random(self.seed)
        bodies: List[dict] = [
            {"kernel": "gemm", "n": self.GEMM_N, "tile": tile}
            for tile in self.TILES]
        for name in self.SPECS:
            for _ in range(self.SEEDS_PER_SPEC):
                spec = get_example(name)
                spec["seed"] = rng.randrange(1 << 31)
                bodies.append({"spec": spec})
        self._start()
        self._warm_workers()
        self.scenarios = [self._build(body) for body in bodies]

    def ops(self) -> List[str]:
        return ["batch"]

    # -- server lifecycle -------------------------------------------------

    def _start(self) -> None:
        server = self.app.serve(
            port=0, workers=self.WORKERS, executor="process",
            cache_dir=str(self.work_dir / "traces"),
            workspace=str(self.work_dir / "workspace"))
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server_address[1], timeout=120)
        self.server = (server, thread, conn)

    def _stop(self) -> None:
        server, thread, conn = self.server
        self.server = None
        conn.close()
        server.shutdown()
        server.close()     # kills and joins (reaps) the pool workers
        thread.join(10)

    def _warm_workers(self) -> None:
        """Run tiny distinct points until both pool workers exist
        (workers spawn lazily, with the first job each one takes)."""
        for attempt in range(4):
            tiles = (2 * attempt + 1, 2 * attempt + 2)
            hashes = [self._build({"kernel": "gemm", "n": 8, "tile": t})
                      for t in tiles]
            self._run(hashes)
            _, health = self._call("GET", "/health")
            if all(w["pid"] for w in health["pool"]["workers"]):
                return
        raise RuntimeError("serve pool workers did not start")

    def close(self) -> None:
        if self.server is not None:
            self._stop()
        if self.traced:
            self.worker_tables = spans.read_worker_tables(
                self.work_dir / "spans")

    # -- client -----------------------------------------------------------

    def _call(self, method: str, path: str, body=None):
        conn = self.server[2]
        conn.request(method, path,
                     body=json.dumps(body) if body is not None else None,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())

    def _build(self, body: dict) -> str:
        status, doc = self._call("POST", "/v1/scenarios", body)
        if status not in (200, 201):
            raise RuntimeError(f"scenario build: HTTP {status}: {doc}")
        cache = doc["trace"]["cache"]
        self.cache_lookups += cache["hits"] + cache["misses"]
        return doc["scenario"]

    def _run(self, hashes: List[str]):
        """Submit one run and follow its stream to the end.

        Returns ``(run id, events, seconds from submission to each
        event)``; every received document joins the cross-check
        inputs.
        """
        t0 = time.perf_counter()
        status, doc = self._call(
            "POST", "/v1/runs",
            {"points": [{"scenario": h, "config": {}} for h in hashes]})
        if status != 202:
            raise RuntimeError(f"run submit: HTTP {status}: {doc}")
        run_id = doc["run"]
        conn = self.server[2]
        conn.request("GET", f"/v1/runs/{run_id}?stream=1")
        resp = conn.getresponse()
        events, latencies = [], []
        while True:
            line = resp.readline()
            if not line:
                break
            event = json.loads(line)
            if "seq" in event:
                latencies.append(time.perf_counter() - t0)
                events.append(event)
        if len(events) < len(hashes):
            # The stream can end on a terminal status just before the
            # last completion event is logged (the scheduler marks a
            # point done before it writes the workspace and appends
            # the event); the run document holds every result.
            _, doc = self._call("GET", f"/v1/runs/{run_id}")
            seen = {event["name"] for event in events}
            for name in doc["names"]:
                if name in seen:
                    continue
                document = doc.get("documents", {}).get(name)
                latencies.append(time.perf_counter() - t0)
                events.append({
                    "name": name, "document": document,
                    "state": "done" if document is not None else "failed",
                    "error": doc.get("errors", {}).get(name)})
        for event in events:
            document = event.get("document")
            if document is not None:
                self.snapshots.extend(document["stats"].values())
                trace = document["manifest"]["trace"]
                self.cache_lookups += (trace["cache_hits"]
                                       + trace["cache_misses"])
        return run_id, events, latencies

    # -- the operation ----------------------------------------------------

    def run(self, op: str) -> OpResult:
        t0 = time.perf_counter()
        run_id, events, latencies = self._run(self.scenarios)
        wall = time.perf_counter() - t0

        self._stop()
        self._start()
        t1 = time.perf_counter()
        status, archived = self._call("GET", f"/v1/runs/{run_id}")
        archive_fetch = time.perf_counter() - t1
        self._stop()

        result = OpResult(wall=wall, points={}, digests={}, accesses=0,
                          extra={"archive_fetch_s": archive_fetch})
        stored = archived.get("documents", {}) if status == 200 else {}
        for event, latency in zip(events, latencies):
            point = event["name"].rsplit(".json", 1)[0]
            result.points[point] = latency
            document = event.get("document")
            if event["state"] != "done" or document is None:
                result.errors[point] = event.get("error") or event["state"]
                continue
            result.digests[point] = stats_digest(document["stats"])
            result.accesses += _accesses(list(document["stats"].values()))
            if stored.get(event["name"]) != document:
                result.errors[point] = ("archived document differs from "
                                        "the live one")
        return result


WORKLOADS = {w.name: w for w in (Fig4Gemm, Uc2Placement, CorunMix,
                                 ServeBatch)}
