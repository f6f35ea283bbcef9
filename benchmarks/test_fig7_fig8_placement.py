"""Figures 7 and 8: Use Case 2 -- OS page placement in DRAM.

Figure 7: speedup of XMem placement and of an Ideal (perfect row
buffer) system over the strengthened baseline, for 27 memory-intensive
workloads.  The paper reports XMem at +8.5% on average (up to +31.9%)
against an Ideal bound of +24.4%, with 5 workloads gaining little
(sc/histo: no headroom; mcf/xalancbmk/bfsRod: random-dominated).

Figure 8: the same runs, reported as normalized memory *read* latency
(paper: -12.6% average, up to -31.4%; writes -6.2%).

One experiment produces both figures; the two test functions check the
two shapes.
"""

from __future__ import annotations

import pytest

from _bench_utils import (
    bench_accesses,
    collect_stats,
    save_result,
    save_stats_documents,
)
from repro.sim import UC2Point, amean, format_table, sweep
from repro.workloads.suite import (
    LOW_HEADROOM,
    RANDOM_DOMINATED,
    SUITE,
)

_cache = {}


def run_suite():
    """Run all 27 workloads x 3 systems once; memoized.

    The per-workload points fan out over ``REPRO_JOBS`` worker
    processes via :mod:`repro.sim.runner`.
    """
    if "results" in _cache:
        return _cache["results"]
    accesses = bench_accesses()
    points = [UC2Point(workload=w.name, accesses=accesses) for w in SUITE]
    out = sweep(points, collect_stats=collect_stats())
    save_stats_documents("fig7_fig8", out)
    results = {p.workload: r.runs for p, r in zip(points, out)}
    _cache["results"] = results
    return results


def test_fig7_speedup(benchmark, results_dir):
    results = benchmark.pedantic(run_suite, rounds=1, iterations=1)

    rows = []
    xmem_speedups = {}
    ideal_speedups = {}
    for name, res in results.items():
        base, xmem, ideal = (res["baseline"], res["xmem"], res["ideal"])
        xs = base.cycles / xmem.cycles
        xi = base.cycles / ideal.cycles
        xmem_speedups[name] = xs
        ideal_speedups[name] = xi
        rows.append([name, xs, xi,
                     f"{base.dram_row_hit_rate:.2f}",
                     f"{xmem.dram_row_hit_rate:.2f}"])
    rows.sort(key=lambda r: r[1], reverse=True)
    rows.append(["amean", amean(xmem_speedups.values()),
                 amean(ideal_speedups.values()), "-", "-"])
    table = format_table(
        ["workload", "XMem speedup", "Ideal speedup",
         "base RBL", "xmem RBL"],
        rows, title="Figure 7 -- speedup over Baseline (27 workloads)",
    )
    print("\n" + table)
    save_result("fig7_speedup", table)

    mean_xmem = amean(xmem_speedups.values())
    mean_ideal = amean(ideal_speedups.values())
    # Shape: XMem gains on average; Ideal gains more on average; the
    # special-case workloads gain little.
    assert mean_xmem > 1.0
    assert mean_ideal > mean_xmem * 0.98
    best = max(xmem_speedups.values())
    assert best > mean_xmem
    for name in LOW_HEADROOM + RANDOM_DOMINATED:
        assert xmem_speedups[name] < mean_xmem + 0.02, name


def test_fig8_read_latency(benchmark, results_dir):
    results = benchmark.pedantic(run_suite, rounds=1, iterations=1)

    rows = []
    read_norm = {}
    write_norm = {}
    for name, res in results.items():
        base = res["baseline"]
        xmem = res["xmem"]
        rn = xmem.dram_read_latency / base.dram_read_latency
        wn = (xmem.dram_write_latency / base.dram_write_latency
              if base.dram_write_latency else 1.0)
        read_norm[name] = rn
        write_norm[name] = wn
        rows.append([name, rn, wn])
    rows.sort(key=lambda r: r[1])
    rows.append(["amean", amean(read_norm.values()),
                 amean(write_norm.values())])
    table = format_table(
        ["workload", "read latency (norm)", "write latency (norm)"],
        rows, title="Figure 8 -- memory latency normalized to Baseline",
    )
    print("\n" + table)
    save_result("fig8_latency", table)

    # Shape: XMem reduces average read latency; the biggest reduction
    # is substantially larger than the mean.
    mean_read = amean(read_norm.values())
    assert mean_read < 1.0
    assert min(read_norm.values()) < mean_read
