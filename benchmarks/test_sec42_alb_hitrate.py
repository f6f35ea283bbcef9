"""Section 4.2: the 256-entry ALB covers ~98.9% of ATOM_LOOKUP requests.

Reproduced by running an XMem-instrumented tiled kernel and reading the
atom-lookaside-buffer hit rate off the AMU.  Every LLC fill consults
the AMU (the pin predicate), so the lookup stream is exactly the one
the paper's components generate.
"""

from __future__ import annotations

import pytest

from _bench_utils import save_result
from repro.sim import build_xmem, format_table, scaled_config
from repro.workloads.polybench import KERNELS

KERNEL_SET = ("gemm", "syrk", "jacobi2d")
N = 64


def run_alb_experiment():
    rows = []
    for name in KERNEL_SET:
        handle = build_xmem(scaled_config(16))
        kernel = KERNELS[name]
        handle.run(kernel.build_packed(N, N // 2, lib=handle.xmemlib))
        stats = handle.xmemlib.process.amu.alb.stats
        rows.append([name, stats.lookups, f"{stats.hit_rate:.3%}"])
    return rows


def test_sec42_alb_hit_rate(benchmark, results_dir):
    rows = benchmark.pedantic(run_alb_experiment, rounds=1, iterations=1)
    table = format_table(
        ["kernel", "ATOM_LOOKUPs", "ALB hit rate"], rows,
        title="Section 4.2 -- 256-entry ALB coverage (paper: 98.9%)",
    )
    print("\n" + table)
    save_result("sec42_alb_hitrate", table)
    for name, lookups, rate in rows:
        assert lookups > 0
        assert float(rate.rstrip("%")) / 100 > 0.95, name
