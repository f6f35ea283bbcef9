"""Interference matrix: suite-catalog tenant mixes on the shared LLC.

The Section 5.1 argument at sweep scale: every (victim, aggressor)
pair of a six-workload slice of the Use-Case-2 suite co-runs on the
two-core shared-LLC model, baseline versus XMem (the victim's atoms
registered with the global pin controller).  Cells are the victim's
slowdown against its solo-baseline run, so the two matrices answer
the datacenter question directly: which tenants can share a socket,
and how much of the damage does pinning recover?  A sampled set of
three-tenant mixes checks that the protection survives a second
aggressor.

Footprints use the co-run scaling discipline (``footprint_div=256``,
see :func:`repro.sim.runner.record_suite_trace`): the suite's
structures are sized for the DRAM-placement studies, so LLC-contention
studies shrink them by the same factor family ``scaled_config``
applies to the caches -- working sets then wrap within the trace and
the shared LLC has temporal reuse worth protecting.

The mixes fan out over ``REPRO_JOBS`` workers via
:func:`repro.sim.runner.sweep`; parallel runs are bit-identical
to serial ones, so the committed tables regenerate byte-identical
regardless of the worker count.
"""

from __future__ import annotations

import os

import pytest

from _bench_utils import save_result
from repro.sim import (
    CorunPoint,
    amean,
    format_matrix,
    format_table,
    sweep,
)

#: The matrix slice: two pointer/graph victims (mcf, omnetpp), a
#: tree-walker (xalancbmk), a hot-vector workload (libquantum), and
#: two streaming aggressors (lbm, sc).
MATRIX_WORKLOADS = ("mcf", "omnetpp", "xalancbmk", "libquantum",
                    "lbm", "sc")

#: Sampled three-tenant mixes (victim first; it carries the atoms).
TRIPLES = (
    ("mcf", "lbm", "sc"),
    ("omnetpp", "lbm", "libquantum"),
    ("xalancbmk", "sc", "lbm"),
    ("libquantum", "mcf", "omnetpp"),
)

FOOTPRINT_DIV = 256
SCALE = 32


def matrix_accesses() -> int:
    """Dense events per tenant (``REPRO_BENCH_CORUN_ACCESSES``)."""
    return int(os.environ.get("REPRO_BENCH_CORUN_ACCESSES", "6000"))


def run_matrix():
    """All solo/pair/triple mixes, fanned over the process pool."""
    accesses = matrix_accesses()

    def point(tenants, modes=("baseline", "xmem")):
        return CorunPoint(tenants=tenants, accesses=accesses,
                          scale=SCALE, footprint_div=FOOTPRINT_DIV,
                          modes=modes)

    solo_points = [point((name,), modes=("baseline",))
                   for name in MATRIX_WORKLOADS]
    pair_points = [point((victim, aggressor))
                   for victim in MATRIX_WORKLOADS
                   for aggressor in MATRIX_WORKLOADS
                   if victim != aggressor]
    triple_points = [point(mix) for mix in TRIPLES]
    results = sweep(solo_points + pair_points + triple_points)

    solo = {r.point.tenants[0]: r.cycles("baseline")
            for r in results[:len(solo_points)]}
    pairs = {r.point.tenants: r
             for r in results[len(solo_points):
                              len(solo_points) + len(pair_points)]}
    triples = results[len(solo_points) + len(pair_points):]
    return solo, pairs, triples


def test_corun_matrix(benchmark, results_dir):
    solo, pairs, triples = benchmark.pedantic(run_matrix, rounds=1,
                                              iterations=1)

    def cell(mode):
        def value(victim, aggressor):
            if victim == aggressor:
                return None
            r = pairs[(victim, aggressor)]
            return f"{r.cycles(mode) / solo[victim]:.3f}"
        return value

    accesses = matrix_accesses()
    header = (f"victim slowdown vs. solo baseline "
              f"(accesses={accesses}, scale={SCALE}, "
              f"footprint_div={FOOTPRINT_DIV})")
    base_tbl = format_matrix(
        MATRIX_WORKLOADS, MATRIX_WORKLOADS, cell("baseline"),
        corner="victim \\ aggressor",
        title=f"Baseline -- {header}")
    xmem_tbl = format_matrix(
        MATRIX_WORKLOADS, MATRIX_WORKLOADS, cell("xmem"),
        corner="victim \\ aggressor",
        title=f"XMem-pinned victim -- {header}")

    triple_rows = []
    for r in triples:
        victim = r.point.tenants[0]
        triple_rows.append([
            " + ".join(r.point.tenants),
            f"{r.cycles('baseline') / solo[victim]:.3f}",
            f"{r.cycles('xmem') / solo[victim]:.3f}",
        ])
    triple_tbl = format_table(
        ["mix (victim first)", "baseline slowdown", "xmem slowdown"],
        triple_rows, title="Sampled triples -- victim slowdown vs. "
                           "solo baseline")

    table = "\n\n".join([base_tbl, xmem_tbl, triple_tbl])
    print("\n" + table)
    save_result("corun_matrix", table)

    # Shape: co-running always costs the victim something, and the
    # pin controller recovers a large share of it on average.  One
    # pairing is a known regression (mcf's NON_DET structure pins
    # partially and trades away shared capacity against sc), so the
    # claims are aggregate, not per-cell.
    base_cells = [pairs[(v, a)].cycles("baseline") / solo[v]
                  for v in MATRIX_WORKLOADS for a in MATRIX_WORKLOADS
                  if v != a]
    xmem_cells = [pairs[(v, a)].cycles("xmem") / solo[v]
                  for v in MATRIX_WORKLOADS for a in MATRIX_WORKLOADS
                  if v != a]
    assert all(s > 1.0 for s in base_cells)
    assert amean(xmem_cells) < 0.75 * amean(base_cells)
    protected = sum(1 for b, x in zip(base_cells, xmem_cells) if x < b)
    assert protected >= 0.8 * len(base_cells)
    for r in triples:
        victim = r.point.tenants[0]
        assert r.cycles("xmem") < r.cycles("baseline")
