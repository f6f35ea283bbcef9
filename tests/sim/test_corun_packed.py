"""The co-run interleaver vs. the per-event reference oracle.

:meth:`CorunSystem.run` (heap-scheduled, each core's private levels
run ahead through the split interpreter's front-end) must be
bit-identical to :class:`~repro.testing.oracles.ReferenceCorun` --
CoreStats and the full stats snapshot -- on real suite-catalog tenant
mixes, baseline and XMem, on a machine shape off the dyadic time grid,
past a lowered fold ceiling, and on a mix that reaches the memory
path's rare branches.  Plus ``REPRO_CHECK`` coverage of that path and
unit coverage of the global pin controller's budget edge cases.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.attributes import PatternType
from repro.core.xmemlib import XMemLib
from repro.cpu.trace import MemAccess
from repro.cpu.vector_engine import fold_ceiling
from repro.mem.cache import Cache
from repro.sim.config import CpuConfig, scaled_config
from repro.sim.corun import CorunSystem, MultiProcessController
from repro.sim.runner import record_suite_trace
from repro.testing.checks import CheckError, check_cache_set
from repro.testing.oracles import ReferenceCorun

PAIRS = [
    ("mcf", "lbm"),
    ("omnetpp", "sc"),
    ("libquantum", "GemsFDTD"),
]


def build_pair(names, mode, accesses=2500, footprint_div=256, cfg=None):
    """A co-run system for one mix (XMem on core 0 in ``"xmem"``
    mode) and its per-core traces."""
    cfg = cfg or scaled_config(32)
    xmem = (0,) if mode == "xmem" else ()
    system = CorunSystem(cfg, len(names), xmem_cores=xmem)
    traces = []
    for core, name in zip(system.cores, names):
        recording = record_suite_trace(name, accesses, footprint_div)
        if core.xmemlib is not None:
            traces.append(recording.replay(core.xmemlib))
        else:
            traces.append(recording.packed.without_xmem())
    return system, traces


def run_pair(names, mode, engine, accesses=2500, footprint_div=256,
             cfg=None):
    """One mix through ``engine``: ``"reference"`` (the per-event
    oracle), ``"packed"`` (``CorunSystem.run``) or ``"object"``
    (``CorunSystem.run`` over materialized event streams)."""
    system, traces = build_pair(names, mode, accesses, footprint_div, cfg)
    if engine == "reference":
        stats = ReferenceCorun(system).run(traces)
    elif engine == "object":
        stats = system.run([list(t.events()) for t in traces])
    else:
        stats = system.run(traces)
    return stats, system.stats_snapshot()


@pytest.mark.parametrize("mode", ["baseline", "xmem"])
@pytest.mark.parametrize("names", PAIRS,
                         ids=["+".join(p) for p in PAIRS])
def test_packed_bit_identical_to_legacy(names, mode):
    """``mcf+lbm`` at 2500 accesses and footprint-div 256 is the
    ``repro corun`` mix the CI corun gate pins."""
    stats_ref, snap_ref = run_pair(names, mode, "reference")
    stats_packed, snap_packed = run_pair(names, mode, "packed")
    assert stats_packed == stats_ref
    assert snap_packed == snap_ref


def test_run_packs_object_streams():
    """Object event streams are packed first and take the same
    interleaver: identical stats and snapshot."""
    stats_packed, snap_packed = run_pair(PAIRS[0], "xmem", "packed")
    stats_object, snap_object = run_pair(PAIRS[0], "xmem", "object")
    assert stats_object == stats_packed
    assert snap_object == snap_packed


@pytest.mark.parametrize("mode", ["baseline", "xmem"])
def test_ineligible_shape_matches_reference(mode):
    """Issue width 3 is off the dyadic time grid, so no time folds --
    every position is replayed in the reference's order -- and must
    still match the reference exactly."""
    cfg = dataclasses.replace(scaled_config(32),
                              cpu=CpuConfig(issue_width=3))
    assert fold_ceiling(3, CorunSystem(cfg, 2).dram.timing) == 0.0
    stats_ref, snap_ref = run_pair(PAIRS[0], mode, "reference", cfg=cfg)
    stats_packed, snap_packed = run_pair(PAIRS[0], mode, "packed",
                                         cfg=cfg)
    assert stats_packed == stats_ref
    assert snap_packed == snap_ref


#: A mix whose pinned spans spread unevenly over the LLC sets, so some
#: sets reach the pin quota and later pin requests are refused.
RARE_BRANCH_MIX = dict(names=("astar", "lbm"), mode="xmem",
                       accesses=1500, footprint_div=200)


def test_rare_branches_covered_and_identical():
    """Snapshot equality only vouches for the memory path's branches the
    mix reaches: pins and pin refusals at the LLC, prefetched-tag hits,
    dirty victims rippling from every core's L1 and L2, DRAM writes."""
    stats_ref, snap_ref = run_pair(engine="reference", **RARE_BRANCH_MIX)
    stats_packed, snap = run_pair(engine="packed", **RARE_BRANCH_MIX)
    assert stats_packed == stats_ref
    assert snap == snap_ref
    llc = snap["llc"]
    assert llc["pinned_fills"] > 0
    assert llc["pin_refusals"] > 0
    assert llc["prefetch_hits"] > 0
    assert snap["dram"]["writes"] > 0
    for core in range(2):
        assert snap[f"core{core}.l1"]["writebacks"] > 0
        assert snap[f"core{core}.l2"]["writebacks"] > 0


def test_checked_run_identical_and_catches_drift(monkeypatch):
    """``REPRO_CHECK`` covers the co-run memory path: a checked run
    snapshots exactly like an unchecked one, and a corrupted L1
    occupancy count is caught by the core's front-end at the end of
    its first chunk."""
    _, snap_plain = run_pair(PAIRS[0], "xmem", "packed")
    monkeypatch.setenv("REPRO_CHECK", "1")
    _, snap_checked = run_pair(PAIRS[0], "xmem", "packed")
    assert snap_checked == snap_plain

    system, traces = build_pair(PAIRS[0], "xmem")
    l1 = system.cores[1].l1
    first = next(ev for ev in traces[1].events()
                 if isinstance(ev, MemAccess))
    l1._valid_counts[l1._index(first.vaddr + system.cores[1].offset)] += 1
    with pytest.raises(CheckError, match="valid count"):
        system.run(traces)


def test_checked_run_catches_a_mended_l1_count(monkeypatch):
    """An L1 valid count one too high on a set with exactly one invalid
    way: the set's next miss takes the full-set path, evicts the
    invalid way (its LRU stamp is the oldest) and so mends the count
    before any recount.  Fill conservation still sees the phantom
    eviction."""
    monkeypatch.setenv("REPRO_CHECK", "1")
    system = CorunSystem(scaled_config(32), 2)
    l1 = system.cores[1].l1
    span = l1.num_sets * l1.line_bytes
    for way in range(l1.ways - 1):
        l1.fill(way * span)
    l1._valid_counts[0] += 1
    with pytest.raises(CheckError, match="fill conservation"):
        system.run([[], [MemAccess((l1.ways - 1) * span)]])
    check_cache_set(l1, 0)          # mended: the set recount passes


def test_exactness_ceiling_falls_back_to_per_position_time(monkeypatch):
    """Past the fold ceiling a core's time accrues per position, as in
    the reference.  A patched grid exponent puts the ceiling at 2**12
    cycles, so both cores cross it early in the mix."""
    from repro.cpu import vector_engine

    monkeypatch.setattr(vector_engine, "_dyadic_k", lambda values: 40)
    stats_ref, snap_ref = run_pair(PAIRS[0], "xmem", "reference")
    stats_packed, snap_packed = run_pair(PAIRS[0], "xmem", "packed")
    assert stats_packed == stats_ref
    assert snap_packed == snap_ref
    assert all(s.cycles > 3 * 2 ** 12 for s in stats_packed)


# -- MultiProcessController.refresh edge cases --------------------------


def make_lib(name: str, atom_bytes: int, reuse: int) -> XMemLib:
    """One library with a single mapped+active atom of ``atom_bytes``."""
    lib = XMemLib()
    atom = lib.create_atom(
        name, pattern=PatternType.REGULAR, stride_bytes=64, reuse=reuse)
    lib.atom_map(atom, 0, atom_bytes)
    lib.atom_activate(atom)
    return lib


def test_refresh_budget_exhaustion():
    """Once the top-reuse atom spends the budget, ``refresh`` breaks
    out and every lower-reuse atom stays unpinned."""
    llc = Cache("llc", 32 * 1024, 8, 64, policy="lru")
    ctl = MultiProcessController(llc)          # 75% budget = 24 KB
    budget = int(llc.size_bytes * ctl.pin_fraction)
    ctl.register(0, make_lib("hot", budget, reuse=255))
    offset = 1 << 40
    ctl.register(offset, make_lib("cold", budget, reuse=100))
    summary = ctl.pin_summary()
    assert summary["pinned_bytes"] == budget
    assert summary["apps_pinned"] == 1
    assert ctl.pin_predicate(0)
    assert not ctl.pin_predicate(offset)


def test_refresh_skips_sub_chunk_takes():
    """A take clamped below one AAM chunk is skipped outright, even
    with budget left: pinning fragments below the mapping granularity
    would be unaccountable."""
    lib = make_lib("tiny", 4096, reuse=255)
    chunk = lib.process.amu.aam.config.chunk_bytes
    llc = Cache("llc", 64 * chunk, 8, 64, policy="lru")
    ctl = MultiProcessController(
        llc, pin_fraction=(chunk // 2) / llc.size_bytes)
    ctl.register(0, lib)
    summary = ctl.pin_summary()
    assert summary["pinned_bytes"] == 0
    assert summary["spans"] == 0
    assert not ctl.pin_predicate(0)
