"""Ablations of the key design choices DESIGN.md calls out.

Not figures from the paper, but the sensitivity studies a reviewer
would ask for:

* **ALB size** -- the paper picks 256 entries for 98.9% coverage; we
  sweep 16..512 and show the knee.
* **AAM chunk granularity** -- the paper defaults to 512 B and argues
  1 KB/6-bit IDs as the compact point; we sweep granularity and report
  the Use-Case-1 speedup retained (coarser chunks blur tile edges).
* **Pin fraction** -- the paper pins at most 75% of the cache "so the
  cache still has space to handle other data"; we sweep 25..95%.
"""

from __future__ import annotations

import pytest

from _bench_utils import save_result
from repro.core.aam import AAMConfig
from repro.core.xmemlib import XMemProcess
from repro.sim import (
    build_baseline,
    build_xmem,
    format_table,
    scaled_config,
)
from repro.workloads.polybench import KERNELS

N = 96
KERNEL = "gemm"
SCALE_FACTOR = 32


def run_alb_sweep():
    rows = []
    for entries in (16, 64, 256, 512):
        cfg = scaled_config(16)
        process = XMemProcess(alb_entries=entries)
        handle = build_xmem(cfg, process=process)
        handle.run(KERNELS[KERNEL].build_packed(64, 32,
                                               lib=handle.xmemlib))
        stats = handle.xmemlib.process.amu.alb.stats
        rows.append([entries, stats.lookups, f"{stats.hit_rate:.3%}"])
    return rows


def test_ablation_alb_size(benchmark, results_dir):
    rows = benchmark.pedantic(run_alb_sweep, rounds=1, iterations=1)
    table = format_table(["ALB entries", "lookups", "hit rate"], rows,
                         title="Ablation -- ALB size (paper: 256)")
    print("\n" + table)
    save_result("ablation_alb_size", table)
    rates = [float(r[2].rstrip("%")) for r in rows]
    assert rates == sorted(rates)  # monotone in size
    assert rates[2] > 95.0         # 256 entries is past the knee


def run_chunk_sweep():
    kernel = KERNELS[KERNEL]
    cfg = scaled_config(SCALE_FACTOR)
    base = build_baseline(cfg).run(kernel.build_packed(N, N)).cycles
    rows = []
    for chunk in (512, 1024, 4096):
        process = XMemProcess(aam_config=AAMConfig(chunk_bytes=chunk))
        handle = build_xmem(cfg, process=process)
        cycles = handle.run(
            kernel.build_packed(N, N, lib=handle.xmemlib)
        ).cycles
        rows.append([f"{chunk} B", base / cycles])
    return rows


def test_ablation_aam_granularity(benchmark, results_dir):
    rows = benchmark.pedantic(run_chunk_sweep, rounds=1, iterations=1)
    table = format_table(
        ["AAM chunk", "XMem speedup over baseline"], rows,
        title="Ablation -- AAM granularity at the largest gemm tile",
    )
    print("\n" + table)
    save_result("ablation_aam_granularity", table)
    # Hints stay useful at every granularity (never a big slowdown).
    assert all(r[1] > 0.95 for r in rows)


def run_pin_fraction_sweep():
    kernel = KERNELS[KERNEL]
    cfg = scaled_config(SCALE_FACTOR)
    base = build_baseline(cfg).run(kernel.build_packed(N, N)).cycles
    rows = []
    for fraction in (0.25, 0.5, 0.75, 0.95):
        handle = build_xmem(cfg)
        handle.controller.pin_fraction = fraction
        cycles = handle.run(
            kernel.build_packed(N, N, lib=handle.xmemlib)
        ).cycles
        rows.append([f"{fraction:.0%}", base / cycles])
    return rows


def test_ablation_pin_fraction(benchmark, results_dir):
    rows = benchmark.pedantic(run_pin_fraction_sweep, rounds=1,
                              iterations=1)
    table = format_table(
        ["pin budget", "XMem speedup over baseline"], rows,
        title="Ablation -- pinning budget (paper: 75%)",
    )
    print("\n" + table)
    save_result("ablation_pin_fraction", table)
    # Pinning helps across the range in the thrashing regime.
    speedups = [r[1] for r in rows]
    assert max(speedups) > 1.05
    # The default is within 10% of the best point.
    assert speedups[2] > max(speedups) * 0.9
