"""Determinism: identical runs must produce identical results.

Every randomized component (allocators, workload generators, random
replacement) is seeded, so a rerun of any experiment reproduces its
numbers bit-for-bit — the property that makes the EXPERIMENTS.md
tables reproducible.
"""

from repro.sim import build_baseline, build_xmem, scaled_config
from repro.sim.usecase2 import run_system
from repro.workloads.polybench import KERNELS
from repro.workloads.suite import BY_NAME


def test_usecase1_deterministic():
    def once():
        handle = build_xmem(scaled_config(16))
        stats = handle.run(
            KERNELS["gemm"].build_trace(48, 24, lib=handle.xmemlib)
        )
        return (stats.cycles, stats.instructions,
                handle.llc.stats.misses, handle.dram.stats.reads)

    assert once() == once()


def test_usecase1_baseline_deterministic():
    def once():
        handle = build_baseline(scaled_config(16))
        stats = handle.run(KERNELS["jacobi2d"].build_trace(48, 24))
        return (stats.cycles, handle.dram.stats.read_latency_sum)

    assert once() == once()


def test_usecase2_deterministic():
    def once(system):
        r = run_system(BY_NAME["kmeans"], system, accesses=8_000)
        return (r.cycles, r.run.dram_read_latency,
                r.run.dram_row_hit_rate)

    for system in ("baseline", "xmem", "ideal"):
        assert once(system) == once(system)


def test_suite_trace_independent_of_hash_randomization():
    """Seeds derive from workload names arithmetically, not hash()."""
    w = BY_NAME["lbm"]
    bases = {s.name: i << 24 for i, s in enumerate(w.structures)}
    first = [(e.vaddr, e.is_write) for e in w.trace(bases)][:500]
    second = [(e.vaddr, e.is_write) for e in w.trace(bases)][:500]
    assert first == second
