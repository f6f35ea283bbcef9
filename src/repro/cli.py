"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro list
    python -m repro usecase1 --kernel gemm --n 96 --tile 96
    python -m repro usecase2 --workload lbm --accesses 60000
    python -m repro sweep --kernels gemm,syrk --n 96 --jobs 4
    python -m repro sweep --kernels gemm --stats-json out/run_a
    python -m repro corun --tenants mcf,lbm,libquantum --accesses 4000
    python -m repro diff out/run_a out/run_b
    python -m repro fuzz --cases 200 --seed 0
    python -m repro serve --port 8642 --workers 2
    python -m repro overheads
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.errors import ConfigurationError
from repro.core.overheads import (
    context_switch_overhead_fraction,
    hardware_area_fraction,
    storage_overheads,
)
from repro.sim import (
    build_baseline,
    build_xmem,
    format_table,
    scaled_config,
)
from repro.workloads.polybench import FIGURE4_KERNELS, KERNELS
from repro.workloads.suite import BY_NAME, SUITE


def cmd_list(_args) -> int:
    """List the available kernels, workloads, and scenario specs."""
    from repro.scenarios import example_names, get_example

    print("Use Case 1 kernels (Polybench):")
    for name in FIGURE4_KERNELS:
        print(f"  {name:<10} {KERNELS[name].description}")
    print("\nUse Case 2 workloads (SPEC/Rodinia/Parboil models):")
    for w in SUITE:
        print(f"  {w.name:<14} {w.description}")
    print("\nScenario specs (repro.scenarios examples; "
          "also `repro sweep --scenarios` / `scenario:` corun tenants):")
    for name in example_names():
        canonical = get_example(name)
        detail = canonical["kind"]
        if detail == "import":
            detail = f"import ({canonical['format']})"
        else:
            detail = (f"workload ({len(canonical['phases'])} phase(s), "
                      f"{len(canonical['regions'])} region(s))")
        print(f"  {name:<14} {detail}")
    return 0


def cmd_usecase1(args) -> int:
    """Run one kernel at one tile size on Baseline and XMem."""
    if args.kernel not in KERNELS:
        print(f"unknown kernel {args.kernel!r}; see `repro list`",
              file=sys.stderr)
        return 2
    kernel = KERNELS[args.kernel]
    tile = args.tile or args.n
    cfg = scaled_config(args.scale)

    baseline = build_baseline(cfg)
    b = baseline.run(kernel.build_packed(args.n, tile))
    xmem = build_xmem(cfg)
    x = xmem.run(kernel.build_packed(args.n, tile, lib=xmem.xmemlib))

    print(format_table(
        ["system", "cycles", "IPC", "LLC miss", "DRAM reads"],
        [
            ["baseline", f"{b.cycles:.0f}", b.ipc,
             f"{baseline.llc.stats.miss_rate:.2%}",
             baseline.dram.stats.reads],
            ["xmem", f"{x.cycles:.0f}", x.ipc,
             f"{xmem.llc.stats.miss_rate:.2%}",
             xmem.dram.stats.reads],
        ],
        title=(f"{args.kernel} N={args.n} tile={tile} "
               f"LLC={cfg.llc_bytes // 1024}KB"),
    ))
    print(f"\nXMem speedup: {b.cycles / x.cycles:.3f}x")
    return 0


def cmd_usecase2(args) -> int:
    """Run one workload on Baseline / XMem / Ideal."""
    from repro.sim.runner import UC2Point, run_point

    try:
        result = run_point(UC2Point(args.workload, args.accesses or None,
                                    args.pick_mapping), collect=True)
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 2
    workload = BY_NAME[args.workload]
    base = result.runs["baseline"]
    rows = []
    for system, r in result.runs.items():
        rows.append([
            system, f"{r.cycles:.0f}",
            f"{base.cycles / r.cycles:.3f}x",
            f"{r.dram_row_hit_rate:.2f}",
            f"{r.dram_read_latency:.1f}",
        ])
    print(format_table(
        ["system", "cycles", "speedup", "RBL", "read latency"],
        rows, title=f"{workload.name}: {workload.description}",
    ))
    if result.manifest["placement"]:
        print("\nplacement decision:")
        print(result.manifest["placement"])
    return 0


def cmd_sweep(args) -> int:
    """Run a (kernel x tile) sweep on the parallel experiment runner."""
    from pathlib import Path

    from repro.sim.runner import (
        RunContext,
        ScenarioPoint,
        SimPoint,
        jobs_from_env,
        sweep,
        write_point_documents,
    )

    if args.kernels == "all":
        kernels = list(FIGURE4_KERNELS)
    else:
        kernels = [k.strip() for k in args.kernels.split(",") if k.strip()]
    systems = tuple(s.strip() for s in args.systems.split(",")
                    if s.strip())
    if args.tiles:
        try:
            tile_list = [int(t) for t in args.tiles.split(",")]
        except ValueError:
            print(f"--tiles must be comma-separated integers, "
                  f"got {args.tiles!r}", file=sys.stderr)
            return 2
    else:
        n = args.n
        tile_list = sorted({max(4, n // 8), n // 4, n // 2, n})
    try:
        points = [
            SimPoint(kernel=k, n=args.n, tile=t, scale=args.scale,
                     systems=systems)
            for k in kernels for t in tile_list
        ]
        if args.scenarios:
            from repro.scenarios import resolve
            from repro.scenarios.spec import canonical_json
            for ref in args.scenarios.split(","):
                if ref.strip():
                    points.append(ScenarioPoint(
                        spec_json=canonical_json(resolve(ref.strip())),
                        scale=args.scale, systems=systems))
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 2
    if not points:
        print("nothing to sweep: no kernels and no --scenarios",
              file=sys.stderr)
        return 2
    jobs = args.jobs if args.jobs else jobs_from_env()
    collect = args.stats_json is not None
    results = sweep(points, jobs=jobs, collect_stats=collect,
                    ctx=RunContext.from_env())
    if collect:
        written = write_point_documents(Path(args.stats_json), results)
        print(f"wrote {len(written)} stats documents to "
              f"{args.stats_json}", file=sys.stderr)

    rows = []
    for res in results:
        if isinstance(res.point, ScenarioPoint):
            row = [f"scn:{res.point.name}", "-"]
        else:
            row = [res.point.kernel, res.point.tile]
        for system in systems:
            row.append(f"{res.runs[system].cycles:.0f}")
        if "baseline" in systems:
            base = res.runs["baseline"].cycles
            for system in systems:
                if system != "baseline":
                    row.append(
                        f"{base / res.runs[system].cycles:.3f}x")
        rows.append(row)
    headers = ["kernel", "tile"] + [f"{s} cycles" for s in systems]
    if "baseline" in systems:
        headers += [f"{s} speedup" for s in systems if s != "baseline"]
    print(format_table(
        headers, rows,
        title=(f"sweep: {len(points)} points, N={args.n}, "
               f"scale={args.scale}, jobs={jobs}"),
    ))
    return 0


def cmd_corun(args) -> int:
    """Run one multi-tenant mix on the shared-LLC co-run engine."""
    from pathlib import Path

    from repro.sim.runner import (
        CorunPoint,
        RunContext,
        run_point,
        write_point_documents,
    )

    tenants = tuple(t.strip() for t in args.tenants.split(",")
                    if t.strip())
    try:
        xmem = tuple(int(t) for t in args.xmem_tenants.split(","))
    except ValueError:
        print(f"--xmem-tenants must be comma-separated core indices, "
              f"got {args.xmem_tenants!r}", file=sys.stderr)
        return 2
    try:
        point = CorunPoint(tenants=tenants, accesses=args.accesses,
                           scale=args.scale, xmem_tenants=xmem,
                           footprint_div=args.footprint_div)
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 2
    collect = args.stats_json is not None
    result = run_point(point, collect=collect, ctx=RunContext.from_env())
    if collect:
        written = write_point_documents(Path(args.stats_json), [result])
        print(f"wrote {len(written)} stats documents to "
              f"{args.stats_json}", file=sys.stderr)
    rows = []
    for i, name in enumerate(tenants):
        base = result.runs["baseline"][i]
        prot = result.runs["xmem"][i]
        tag = " [xmem]" if i in xmem else ""
        rows.append([
            f"{i}: {name}{tag}",
            f"{base.cycles:.0f}", base.llc_misses,
            f"{prot.cycles:.0f}", prot.llc_misses,
            f"{prot.cycles / base.cycles:.3f}x",
        ])
    print(format_table(
        ["tenant", "baseline cycles", "LLC misses",
         "xmem cycles", "LLC misses", "xmem vs base"],
        rows,
        title=(f"co-run mix: {len(tenants)} tenants, "
               f"accesses={args.accesses}, scale={args.scale}"),
    ))
    return 0


def _load_stats_docs(target: "Path") -> Optional[dict]:
    """``{doc_name: stats_subtree}`` from a --stats-json file or dir.

    Only the ``stats`` subtree of each document participates in diffs:
    manifests legitimately differ between runs (wall times, RSS,
    cache hit counts) while the stats must not.
    """
    import json
    from pathlib import Path

    target = Path(target)
    if target.is_file():
        paths = [target]
    elif target.is_dir():
        paths = sorted(target.glob("*.json"))
        if not paths:
            print(f"no *.json documents in {target}", file=sys.stderr)
            return None
    else:
        print(f"no such file or directory: {target}", file=sys.stderr)
        return None
    docs = {}
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            docs[path.name] = doc["stats"]
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot read stats document {path}: {exc}",
                  file=sys.stderr)
            return None
    return docs


def cmd_diff(args) -> int:
    """Compare the stats of two --stats-json runs, counter by counter.

    Exit status: 0 = zero deltas (the determinism gate passes), 1 =
    deltas found, 2 = unreadable/mismatched inputs.
    """
    from repro.sim.stats import diff_stats

    docs_a = _load_stats_docs(args.run_a)
    docs_b = _load_stats_docs(args.run_b)
    if docs_a is None or docs_b is None:
        return 2
    only_a = sorted(set(docs_a) - set(docs_b))
    only_b = sorted(set(docs_b) - set(docs_a))
    if only_a or only_b:
        for name in only_a:
            print(f"only in {args.run_a}: {name}", file=sys.stderr)
        for name in only_b:
            print(f"only in {args.run_b}: {name}", file=sys.stderr)
        return 2
    total = 0
    for name in sorted(docs_a):
        stats_a, stats_b = docs_a[name], docs_b[name]
        # One document holds {system: snapshot}; prefix group paths
        # with the system name so the flat keys are fully qualified.
        flat_a = {f"{system}.{path}": values
                  for system, snap in stats_a.items()
                  for path, values in snap.items()}
        flat_b = {f"{system}.{path}": values
                  for system, snap in stats_b.items()
                  for path, values in snap.items()}
        deltas = diff_stats(flat_a, flat_b, tolerance=args.tolerance)
        for key, va, vb in deltas:
            print(f"{name}: {key}: {va} != {vb}")
        total += len(deltas)
    if total:
        print(f"\n{total} counter delta(s) across {len(docs_a)} "
              f"document(s)")
        return 1
    print(f"identical stats: {len(docs_a)} document(s), zero deltas")
    return 0


def cmd_fuzz(args) -> int:
    """Differential fuzzing: optimized models vs. reference oracles.

    Exit status: 0 = all cases agree (and all replays pass), 1 =
    divergence found, 2 = bad arguments / unreadable reproducer.
    """
    from pathlib import Path

    from repro.testing.fuzz import LANES, replay, run_fuzz

    if args.replay:
        # Replay mode: re-run checked-in reproducers instead of fuzzing.
        status = 0
        for target in args.replay:
            path = Path(target)
            paths = sorted(path.glob("*.json")) if path.is_dir() else [path]
            if not paths:
                print(f"no reproducers in {target}", file=sys.stderr)
                return 2
            for p in paths:
                try:
                    error = replay(p)
                except (OSError, ValueError, KeyError) as exc:
                    print(f"cannot replay {p}: {exc}", file=sys.stderr)
                    return 2
                if error is None:
                    print(f"{p}: PASS (divergence fixed)")
                else:
                    print(f"{p}: FAIL: {error}")
                    status = 1
        return status

    if args.cases <= 0:
        print(f"--cases must be > 0: {args.cases}", file=sys.stderr)
        return 2
    lanes = None
    if args.lanes:
        lanes = [s.strip() for s in args.lanes.split(",") if s.strip()]
        unknown = [s for s in lanes if s not in LANES]
        if unknown:
            print(f"unknown lanes {unknown}; choices: {sorted(LANES)}",
                  file=sys.stderr)
            return 2
    log = print if args.verbose else None
    report = run_fuzz(
        cases=args.cases, seed=args.seed, length=args.length,
        lanes=lanes, corpus_dir=args.corpus, log=log,
    )
    lanes_desc = ", ".join(
        f"{name}={count}" for name, count in report.per_lane.items())
    print(f"fuzz: {report.cases} cases (seed {args.seed}): {lanes_desc}")
    if report.ok:
        print("all lanes agree")
        return 0
    for failure in report.failures:
        print(f"case {failure.case_index} [{failure.lane}]: "
              f"{failure.error} "
              f"(shrunk {failure.original_size} -> {len(failure.items)} "
              f"items)")
    for path in report.corpus_paths:
        print(f"reproducer: {path}", file=sys.stderr)
    print(f"\n{len(report.failures)} diverging case(s)")
    return 1


def cmd_serve(args) -> int:
    """Run the long-lived simulation-as-a-service HTTP server."""
    from repro.serve.app import main as serve_main

    from repro.sim.runner import jobs_from_env

    workers = args.workers
    if workers is None:
        workers = jobs_from_env(default=2)
    return serve_main(
        host=args.host, port=args.port, workers=workers,
        queue_limit=args.queue_limit, cache_dir=args.cache_dir,
        out_root=args.out_root, executor=args.executor,
        recycle_after=args.recycle_after, workspace=args.workspace,
        workspace_ttl_s=args.workspace_ttl,
        workspace_limit_bytes=args.workspace_limit_mb << 20,
        verbose=args.verbose,
    )


def cmd_overheads(_args) -> int:
    """Print the Section 4.4 overhead summary for an 8 GB machine."""
    ov = storage_overheads(8 << 30)
    print(format_table(
        ["overhead", "value"],
        [
            ["AAM", f"{ov.aam_bytes >> 20} MB ({ov.aam_fraction:.2%} "
             f"of physical memory)"],
            ["AST", f"{ov.ast_bytes} B"],
            ["GAT", f"{ov.gat_bytes} B"],
            ["hardware area", f"{hardware_area_fraction():.4%} of a "
             f"Xeon E5-2698 die"],
            ["context switch", f"{context_switch_overhead_fraction():.1%}"
             " of a typical switch"],
        ],
        title="Section 4.4 overheads (8 GB system, 256 atoms)",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XMem (ISCA 2018) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list kernels and workloads")

    uc1 = sub.add_parser("usecase1", help="cache management (Section 5)")
    uc1.add_argument("--kernel", default="gemm")
    uc1.add_argument("--n", type=int, default=96)
    uc1.add_argument("--tile", type=int, default=None)
    uc1.add_argument("--scale", type=int, default=32,
                     help="cache scale-down factor (default 32)")

    uc2 = sub.add_parser("usecase2", help="DRAM placement (Section 6)")
    uc2.add_argument("--workload", default="lbm")
    uc2.add_argument("--accesses", type=int, default=60_000)
    uc2.add_argument("--pick-mapping", action="store_true",
                     help="probe mappings for the strongest baseline")

    sw = sub.add_parser(
        "sweep",
        help="parallel (kernel x tile) sweep on the experiment runner")
    sw.add_argument("--kernels", default="gemm",
                    help="comma-separated kernel names, 'all', or '' "
                         "for a scenario-only sweep")
    sw.add_argument("--scenarios", default=None,
                    help="comma-separated scenario refs (shipped "
                         "example names or spec-file paths); each "
                         "compiles to one extra sweep point")
    sw.add_argument("--n", type=int, default=96)
    sw.add_argument("--tiles", default=None,
                    help="comma-separated tile sizes "
                         "(default: n/8, n/4, n/2, n)")
    sw.add_argument("--scale", type=int, default=32)
    sw.add_argument("--systems", default="baseline,xmem",
                    help="comma-separated: baseline,xmem,xmem-pref")
    sw.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default: REPRO_JOBS or "
                         "all cores; 1 = serial)")
    sw.add_argument("--stats-json", default=None, metavar="DIR",
                    help="write one manifest+stats JSON document per "
                         "point into DIR")

    co = sub.add_parser(
        "corun",
        help="multi-tenant co-run mix on the shared LLC")
    co.add_argument("--tenants", default="mcf,lbm",
                    help="comma-separated suite workloads (or "
                         "'scenario:<ref>' spec tenants), one per core")
    co.add_argument("--accesses", type=int, default=4000,
                    help="dense events per tenant (default 4000)")
    co.add_argument("--scale", type=int, default=32,
                    help="cache scale-down factor (default 32)")
    co.add_argument("--footprint-div", type=int, default=1,
                    help="shrink every structure by this factor so "
                         "working sets wrap at LLC scale (default 1)")
    co.add_argument("--xmem-tenants", default="0",
                    help="comma-separated core indices carrying XMem "
                         "semantics under the xmem mode (default 0)")
    co.add_argument("--stats-json", default=None, metavar="DIR",
                    help="write the mix's manifest+stats JSON document "
                         "into DIR (compare runs with `repro diff`)")

    df = sub.add_parser(
        "diff",
        help="compare the stats of two --stats-json runs")
    df.add_argument("run_a", help="first run: a --stats-json "
                                  "directory or one document")
    df.add_argument("run_b", help="second run to compare against")
    df.add_argument("--tolerance", type=float, default=0.0,
                    help="absolute delta to ignore (default 0: "
                         "exact, the determinism gate)")

    fz = sub.add_parser(
        "fuzz",
        help="differential fuzzing against the reference oracles")
    fz.add_argument("--cases", type=int, default=200,
                    help="number of seeded cases (default 200)")
    fz.add_argument("--seed", type=int, default=0,
                    help="sweep seed (default 0)")
    fz.add_argument("--length", type=int, default=400,
                    help="events per generated case (default 400)")
    fz.add_argument("--lanes", default=None,
                    help="comma-separated lane names "
                         "(default: all lanes, round-robin)")
    fz.add_argument("--corpus", default=None, metavar="DIR",
                    help="write shrunk reproducers into DIR")
    fz.add_argument("--replay", nargs="*", default=None, metavar="PATH",
                    help="replay reproducer files/dirs instead of "
                         "fuzzing")
    fz.add_argument("--verbose", action="store_true",
                    help="log each failure as it shrinks")

    sv = sub.add_parser(
        "serve",
        help="simulation-as-a-service HTTP server "
             "(scenario/run split; see docs/serve.md)")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8642,
                    help="listen port (default 8642; 0 = ephemeral)")
    sv.add_argument("--workers", type=int, default=None,
                    help="pool size: concurrently executing points "
                         "(default: REPRO_JOBS, else 2)")
    sv.add_argument("--queue-limit", type=int, default=64,
                    help="max pending points before requests are "
                         "rejected with 429 (default 64)")
    sv.add_argument("--executor", choices=("process", "thread"),
                    default="process",
                    help="point execution backend: 'process' runs "
                         "each point in an import-warm worker process "
                         "(true parallelism, crash isolation, hard "
                         "cancel); 'thread' executes in-process "
                         "(default process)")
    sv.add_argument("--recycle-after", type=int, default=32,
                    metavar="N",
                    help="retire a worker process after N jobs to cap "
                         "RSS growth (default 32)")
    sv.add_argument("--workspace", default=None, metavar="DIR",
                    help="persist completed run documents under DIR "
                         "and serve them across restarts "
                         "(default: in-memory only)")
    sv.add_argument("--workspace-ttl", type=float, default=604800.0,
                    metavar="SECONDS",
                    help="evict workspace run records older than this "
                         "(default 604800 = 7 days)")
    sv.add_argument("--workspace-limit-mb", type=int, default=512,
                    metavar="MB",
                    help="evict oldest workspace runs beyond this "
                         "total size (default 512)")
    sv.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="trace-cache directory (default: "
                         "REPRO_TRACE_CACHE / XDG cache; "
                         "'off' disables the disk layer)")
    sv.add_argument("--out-root", default=None, metavar="DIR",
                    help="confine client out_dir paths under DIR "
                         "(default: trust clients with any writable "
                         "path; fine on the loopback bind)")
    sv.add_argument("--verbose", action="store_true",
                    help="log each request line to stderr")

    sub.add_parser("overheads", help="Section 4.4 overhead summary")
    return parser


COMMANDS = {
    "list": cmd_list,
    "usecase1": cmd_usecase1,
    "usecase2": cmd_usecase2,
    "sweep": cmd_sweep,
    "corun": cmd_corun,
    "diff": cmd_diff,
    "fuzz": cmd_fuzz,
    "serve": cmd_serve,
    "overheads": cmd_overheads,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
