#!/usr/bin/env python3
"""The performance benchmark of the XMem reproduction.

One command times four workloads, checks every simulated result
against golden stats digests, and reports end-to-end metrics or, in a
traced run, per-layer ones.  Metric names, units and regression bounds
live in ``BENCHMARK.json`` at the repository root; README.md explains
the workloads and how the layer metrics relate to the end-to-end ones.

    # one run of one workload; the last stdout line is the JSON result
    python3 benchmarks/perf/bench.py --workload fig4-gemm --seed 0 \\
        --seconds 20 --trace 0
    # every workload: RUNS runs each plus a traced run, summarized
    python3 benchmarks/perf/bench.py [--seed S] [--out FILE]
    # two summaries, metric by metric
    python3 benchmarks/perf/bench.py --compare BEFORE.json AFTER.json
    # rewrite golden.json after an intended change of simulated stats
    python3 benchmarks/perf/bench.py --write-golden

How a run measures: it starts fresh child processes of this script.
Each child sets its workload up, reports that it is ready, and runs
operations for its share of the seconds, continuing the operation
cycle where the previous child stopped.  ``setup_s`` is the time from
starting a child to its ready report (interpreter start and imports
included), median over the children; timings of the operations are
medians per operation.  Every time is reported in reference seconds:
a child samples the host's speed while it works (``speedometer.py``)
and scales each time measured by the speed during it, so that a slow
phase of a shared host does not read as a slow program.  A traced
run (``--trace 1``) runs one untraced child, then one child with spans
on every layer boundary for exactly one round of operations (see
``spans.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from speedometer import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
WORK = HERE / ".work"

#: Prefix of the lines a child reports on (anything else it prints is
#: passed through to stderr).
MARK = "@bench "

#: Children per untraced run (at least): set-up is measured once per
#: child, and serve-batch runs one operation per child.
CHILDREN = 5

#: Untraced runs per workload in the summary mode.
RUNS = 5

#: A run is abandoned (its children killed) after this many seconds.
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_golden() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN.read_text())


# ---------------------------------------------------------------------------
# Child: set up one workload and run operations
# ---------------------------------------------------------------------------

def emit(message: dict) -> None:
    print(MARK + json.dumps(message), flush=True)


def peak_rss_mb() -> float:
    """The larger of this process's and its reaped children's peak RSS
    (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def child_main(args: argparse.Namespace) -> int:
    """One child process, sampling the host's speed throughout."""
    t_start = time.perf_counter()
    meter = Speedometer().start()
    try:
        return run_child(args, meter, t_start)
    finally:
        meter.stop()


def run_child(args: argparse.Namespace, meter: Speedometer,
              t_start: float) -> int:
    """Set up, report ready, run operations, report them."""
    import spans
    from workloads import WORKLOADS

    # Wrappers go on before the workload builds anything.
    recorder = spans.install() if args.trace else None
    workload = WORKLOADS[args.child](args.seed, Path(args.work_dir),
                                     traced=bool(args.trace))
    records: List[dict] = []
    try:
        workload.prepare()
        ops = workload.ops()
        t_ready = time.perf_counter()
        emit({"ready": True, "scale": meter.scale(t_start, t_ready)})
        need = args.min_ops or len(ops)
        index = args.start
        limit = workload.ops_per_process
        while limit is None or len(records) < limit:
            elapsed = time.perf_counter() - t_ready
            # Past the minimum, start another operation only if one of
            # average length still ends within the budget.
            if len(records) >= need and (
                    elapsed * (len(records) + 1) / len(records)
                    > args.budget):
                break
            op = ops[index % len(ops)]
            index += 1
            t_op = time.perf_counter()
            try:
                result = workload.run(op)
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                traceback.print_exc()
                records.append({"op": op,
                                "error": f"{type(exc).__name__}: {exc}"})
                break
            records.append({"op": op, "wall": result.wall,
                            "scale": meter.scale(t_op, time.perf_counter()),
                            "points": result.points,
                            "digests": result.digests,
                            "accesses": result.accesses,
                            "errors": result.errors,
                            "extra": result.extra})
    finally:
        workload.close()
    report = {"n_ops": len(ops), "ops": records, "rss_mb": peak_rss_mb()}
    if recorder is not None:
        table = spans.merge_tables([recorder.table()]
                                   + workload.worker_tables)
        report["layers"], report["unobserved"] = spans.fold(
            table, workload.snapshots, workload.cache_lookups,
            workload.translates)
    emit(report)
    return 0


# ---------------------------------------------------------------------------
# Parent: children, metrics, checks
# ---------------------------------------------------------------------------

def child_env() -> Dict[str, str]:
    """The children's environment: no inherited ``REPRO_*`` knobs, no
    trace cache outside the workloads' own directories, and a fixed
    hash seed (one less source of run-to-run variance)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["REPRO_TRACE_CACHE"] = "off"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_child(workload: str, seed: int, budget: float, start: int,
                min_ops: int, trace: bool, deadline: float) -> dict:
    """Run one child to completion; its report plus ``setup_s``.

    ``min_ops`` 0 asks for one full round of operations.
    """
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK))
    cmd = [sys.executable, str(HERE / "bench.py"), "--child", workload,
           "--seed", str(seed), "--budget", repr(budget),
           "--start", str(start), "--min-ops", str(min_ops),
           "--trace", str(int(trace)), "--work-dir", str(work_dir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    ready: Optional[float] = None
    report: Optional[dict] = None
    try:
        for line in proc.stdout:
            if not line.startswith(MARK):
                sys.stderr.write(line)
                continue
            message = json.loads(line[len(MARK):])
            if message.get("ready"):
                ready = (time.perf_counter() - t0) * message["scale"]
            else:
                report = message
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if proc.returncode != 0 or ready is None or report is None:
        raise BenchError(f"{workload}: child process exited with "
                         f"{proc.returncode} before reporting")
    report["setup_s"] = ready
    return report


def end_to_end(reports: List[dict], scaled: bool = True
               ) -> Dict[str, float]:
    """The end-to-end metrics of one run's children.

    Every time is in reference seconds: as measured, times the host's
    speed while it was measured (see ``speedometer.py``; ``scaled``
    False leaves operation times as measured).  ``wall_s``
    is one round: the sum over distinct operations of each one's
    median time.  Point latencies are medians per point, and their
    median is taken over the points of one round.  Peak RSS is the
    largest child's: the children between them run every operation,
    while one child's peak depends on which ones it ran.
    """
    walls: Dict[str, List[float]] = defaultdict(list)
    accesses: Dict[str, int] = {}
    points: Dict[str, List[float]] = defaultdict(list)
    for report in reports:
        for rec in report["ops"]:
            if "error" in rec:
                continue
            scale = rec["scale"] if scaled else 1.0
            walls[rec["op"]].append(rec["wall"] * scale)
            accesses.setdefault(rec["op"], rec["accesses"])
            for point, seconds in rec["points"].items():
                points[point].append(seconds * scale)
    if not walls:
        raise BenchError("no operation completed")
    wall = sum(statistics.median(v) for v in walls.values())
    latencies = [statistics.median(v) for v in points.values()]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "wall_s": wall,
        "sim_accesses_per_s": sum(accesses.values()) / wall,
        "point_latency_p50_s": statistics.median(latencies),
        "peak_rss_mb": max(r["rss_mb"] for r in reports),
    }


def check(workload: str, seed: int, reports: List[dict],
          golden: Dict[str, Dict[str, str]]
          ) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over every checked point.

    A point fails when its operation raised, the workload reported it
    wrong (serve-batch: an archived document differing from the live
    one), or its stats digest differs from ``golden.json`` (points
    listed there) or from its first run (points of seeds other than
    0, whose inputs golden.json does not cover).
    """
    reference = dict(golden.get(workload, {}))
    attempted = failed = 0
    problems: List[str] = []
    for report in reports:
        for rec in report["ops"]:
            if "error" in rec:
                attempted += 1
                failed += 1
                problems.append(f"{rec['op']}: {rec['error']}")
                continue
            for unit in rec["points"]:
                attempted += 1
                digest = rec["digests"].get(unit)
                problem = rec["errors"].get(unit)
                if problem is None and digest is None:
                    problem = "no stats"
                elif problem is None and seed == 0 \
                        and unit not in reference:
                    problem = "no golden digest"
                elif problem is None and \
                        reference.setdefault(unit, digest) != digest:
                    problem = "stats digest changed"
                if problem is not None:
                    failed += 1
                    problems.append(f"{unit}: {problem}")
    return attempted, failed, problems


def timed_reports(workload: str, seed: int, seconds: float,
                  deadline: float) -> List[dict]:
    """The children of one untraced run: :data:`CHILDREN` of them,
    more if needed to cover every operation at least once."""
    reports: List[dict] = []
    executed = 0
    while len(reports) < CHILDREN or executed < reports[0]["n_ops"]:
        report = spawn_child(workload, seed, seconds / CHILDREN,
                             executed, 1, False, deadline)
        executed += len(report["ops"])
        reports.append(report)
    return reports


def traced_reports(workload: str, seed: int, seconds: float,
                   deadline: float) -> Tuple[List[dict], Dict[str, float]]:
    """An untraced child (the overhead baseline) and a traced one;
    returns both reports and the per-layer metrics."""
    plain = spawn_child(workload, seed, seconds / 2, 0, 0, False,
                        deadline)
    traced = spawn_child(workload, seed, 0.0, 0, 0, True, deadline)
    layers = dict(traced["layers"])
    layers["trace.overhead"] = (end_to_end([traced])["wall_s"]
                                / end_to_end([plain])["wall_s"])
    fetches = [rec["extra"]["archive_fetch_s"] * rec["scale"]
               for rec in plain["ops"]
               if "archive_fetch_s" in rec.get("extra", {})]
    layers["serve.archive_fetch_s"] = (statistics.median(fetches)
                                       if fetches else 0.0)
    for layer in traced["unobserved"]:
        print(f"{workload}: layer {layer} unobserved: its span count "
              f"disagrees with the stats counters", file=sys.stderr)
    return [plain, traced], layers


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: the result object the command prints."""
    spec = load_spec()
    deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        reports, values = traced_reports(workload, seed, seconds,
                                         deadline)
        wanted = spec["per_layer"]
    else:
        reports = timed_reports(workload, seed, seconds, deadline)
        values = end_to_end(reports)
        wanted = spec["end_to_end"]
        scales = [rec["scale"] for report in reports
                  for rec in report["ops"] if "scale" in rec]
        print(f"{workload}: wall_s as measured "
              f"{end_to_end(reports, scaled=False)['wall_s']:.4f} s; the "
              f"host ran at {min(scales):.2f}-{max(scales):.2f} times the "
              f"reference speed", file=sys.stderr)
    if set(values) != {m["name"] for m in wanted}:
        raise BenchError(f"metrics {sorted(values)} do not match "
                         f"BENCHMARK.json")
    attempted, failed, problems = check(workload, seed, reports,
                                        load_golden())
    for problem in problems:
        print(f"{workload}: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }


# ---------------------------------------------------------------------------
# Suite, compare and golden modes
# ---------------------------------------------------------------------------

def host_fingerprint() -> Dict[str, Optional[str]]:
    from importlib import metadata
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    nproc = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else os.cpu_count())
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy, "machine": platform.machine(),
            "system": platform.system(), "git_sha": sha}


def summarize(runs: List[dict]) -> Dict[str, dict]:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        out[name] = {"median": statistics.median(values),
                     "min": min(values), "max": max(values),
                     "unit": first["unit"]}
    return out


def suite(seed: int, seconds: float, out: Optional[str]) -> int:
    spec = load_spec()
    doc = {"schema": 1, "seed": seed, "runs": RUNS, "seconds": seconds,
           "host": host_fingerprint(), "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        timed = [measure(workload, seed, seconds, False)
                 for _ in range(RUNS)]
        traced = measure(workload, seed, seconds, True)
        entry = {"runs": timed, "traced": traced,
                 "summary": summarize(timed)}
        doc["workloads"][workload] = entry
        ok = ok and all(r["correct"] for r in timed + [traced])
        failed = sum(r["failed"] for r in timed + [traced])
        attempted = sum(r["attempted"] for r in timed + [traced])
        print(f"{workload} (seed {seed}, {RUNS} runs of "
              f"{seconds:g} s; {failed} of {attempted} "
              f"checked points failed)")
        for name, s in entry["summary"].items():
            print(f"  {name:<24} {s['median']:>12.4f} {s['unit']:<6}"
                  f"[{s['min']:.4f} .. {s['max']:.4f}]")
        print("  per layer (traced run):")
        for name, m in traced["metrics"].items():
            print(f"    {name:<28} {m['value']:>14.6g} {m['unit']}")
    if out:
        Path(out).write_text(json.dumps(doc, indent=1, sort_keys=True)
                             + "\n")
    return 0 if ok else 1


def verdict(before: Sequence[float], after: Sequence[float], better: str,
            bound: float) -> str:
    """How ``after`` compares with ``before`` on one metric.

    ``worse`` when its median is worse by more than ``bound``;
    ``better`` when it is better by more than the before runs' own
    spread (quartile distance over median); ``unresolved`` when that
    spread is wider than the bound, unless every after run beats every
    before run; otherwise ``within bound``.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(before)
    change = sign * (statistics.median(after) - base) / base
    spread = 0.0
    if len(before) > 1:
        q1, _, q3 = statistics.quantiles(before, n=4)
        spread = (q3 - q1) / base
    beats_all = all(sign * (a - b) < 0 for a in after for b in before)
    if spread > bound:
        return "better" if beats_all else "unresolved"
    if change > bound:
        return "worse"
    if change < 0 and -change > spread:
        return "better"
    return "within bound"


def compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    print(f"{'workload':<14} {'metric':<22} {'before':>12} {'after':>12} "
          f"{'change':>8}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a or workload not in b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in a[workload]["runs"]]
            vb = [r["metrics"][name]["value"] for r in b[workload]["runs"]]
            ma, mb = statistics.median(va), statistics.median(vb)
            print(f"{workload:<14} {name:<22} {ma:>12.4g} {mb:>12.4g} "
                  f"{(mb - ma) / ma:>+8.1%}  "
                  f"{verdict(va, vb, metric['better'], metric['bound'])}")
    return 0


def write_golden() -> int:
    """Record seed-0 digests: one round of every workload."""
    golden: Dict[str, Dict[str, str]] = {}
    for workload in (w["name"] for w in load_spec()["workloads"]):
        report = spawn_child(workload, 0, 0.0, 0, 0, False,
                             time.monotonic() + RUN_DEADLINE_S)
        digests: Dict[str, str] = {}
        for rec in report["ops"]:
            if "error" in rec or rec["errors"]:
                raise BenchError(f"{workload}: {rec.get('error')}"
                                 f"{rec.get('errors')}")
            digests.update(rec["digests"])
        golden[workload] = digests
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="XMem reproduction performance benchmark")
    parser.add_argument("--workload", help="run one workload once and "
                        "print its JSON result")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time of one run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead")
    parser.add_argument("--out", help="write the summary JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--write-golden", action="store_true")
    # Internal: one child process (see the module docstring).
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--start", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--min-ops", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"bench: no simulator sources at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    if args.child:
        sys.path.insert(0, str(SRC))
        return child_main(args)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = (args.seconds if args.seconds is not None
               else spec["run_seconds"])
    try:
        if args.write_golden:
            return write_golden()
        if args.workload is None:
            return suite(args.seed, seconds, args.out)
        if args.workload not in names:
            print(f"bench: unknown workload {args.workload!r}; "
                  f"choices: {names}", file=sys.stderr)
            return 2
        result = measure(args.workload, args.seed, seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
