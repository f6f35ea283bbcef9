"""Section 4.4: the four overhead categories.

1. Storage: AAM 0.2% of physical memory (16 MB on 8 GB), AST 32 B,
   GAT a few KB -- recomputed from the table geometries.
2. Instructions: XMem operations are 0.014% of dynamic instructions on
   average, at most 0.2% -- measured on instrumented Polybench runs.
3. Hardware area: 0.144 mm^2, 0.03% of a Xeon E5-2698 -- the paper's
   CACTI numbers carried as constants, ratio recomputed.
4. Context switch: one register + ALB/PAT flush (~700 ns) on a 3-5 us
   switch -- recomputed.
"""

from __future__ import annotations

import pytest

from _bench_utils import save_result
from repro.core.aam import AAMConfig
from repro.core.overheads import (
    context_switch_overhead_fraction,
    hardware_area_fraction,
    instruction_overhead,
    storage_overheads,
)
from repro.sim import build_xmem, format_table, scaled_config
from repro.workloads.polybench import KERNELS

KERNEL_SET = ("gemm", "syrk", "mvt", "jacobi2d", "fdtd2d")
N = 64


def test_sec44_storage(benchmark, results_dir):
    ov = benchmark.pedantic(storage_overheads, args=(8 << 30,),
                            rounds=1, iterations=1)
    compact = storage_overheads(8 << 30,
                                AAMConfig(chunk_bytes=1024, atom_id_bits=6))
    rows = [
        ["AAM (512B/8b)", f"{ov.aam_bytes >> 20} MB",
         f"{ov.aam_fraction:.3%}", "0.2%"],
        ["AAM (1KB/6b)", f"{compact.aam_bytes >> 20} MB",
         f"{compact.aam_fraction:.3%}", "0.07%"],
        ["AST", f"{ov.ast_bytes} B", "-", "32 B"],
        ["GAT", f"{ov.gat_bytes} B", "-", "a few KB (19 B/atom)"],
    ]
    table = format_table(["table", "size", "fraction", "paper"], rows,
                         title="Section 4.4(1) -- storage overheads, 8 GB")
    print("\n" + table)
    save_result("sec44_storage", table)
    assert ov.aam_fraction == pytest.approx(0.002, rel=0.05)
    assert compact.aam_fraction == pytest.approx(0.0007, rel=0.1)
    assert ov.ast_bytes == 32


def run_instruction_overhead():
    rows = []
    fractions = []
    for name in KERNEL_SET:
        handle = build_xmem(scaled_config(16))
        kernel = KERNELS[name]
        stats = handle.run(kernel.build_packed(N, 16, lib=handle.xmemlib))
        frac = instruction_overhead(stats.xmem_instructions,
                                    stats.instructions)
        fractions.append(frac)
        rows.append([name, stats.instructions, stats.xmem_instructions,
                     f"{frac:.4%}"])
    return rows, fractions


def test_sec44_instructions(benchmark, results_dir):
    rows, fractions = benchmark.pedantic(run_instruction_overhead,
                                         rounds=1, iterations=1)
    table = format_table(
        ["kernel", "instructions", "xmem instrs", "overhead"], rows,
        title=("Section 4.4(2) -- instruction overhead "
               "(paper: 0.014% avg, 0.2% max)"),
    )
    print("\n" + table)
    save_result("sec44_instructions", table)
    # Paper bound: at most 0.2% additional instructions.
    assert max(fractions) <= 0.002


def test_sec44_area_and_context_switch(benchmark, results_dir):
    area = benchmark.pedantic(hardware_area_fraction, rounds=1,
                              iterations=1)
    ctx = context_switch_overhead_fraction()
    rows = [
        ["AMU + translator area", f"{area:.4%}", "0.03%"],
        ["context-switch overhead", f"{ctx:.2%}", "~700ns / 3-5us"],
    ]
    table = format_table(["overhead", "measured", "paper"], rows,
                         title="Section 4.4(3,4) -- area & context switch")
    print("\n" + table)
    save_result("sec44_area_ctx", table)
    assert area < 0.001
    assert ctx < 0.25
