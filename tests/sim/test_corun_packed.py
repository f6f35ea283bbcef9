"""The co-run interleaver vs. the per-event reference oracle.

:meth:`CorunSystem.run` (heap-scheduled, each core's private levels
run ahead through the split interpreter's front-end) must be
bit-identical to :class:`~repro.testing.oracles.ReferenceCorun` --
CoreStats and the full stats snapshot -- on real suite-catalog tenant
mixes, baseline and XMem, on a machine shape off the dyadic time grid,
past a lowered fold ceiling, and on a mix that reaches the memory
path's rare branches -- and each core's L1 stamps, clock and dirty
bits, with the front-end's MRU-run fold's edge cases.  Plus
``REPRO_CHECK`` coverage of that path, the stored front-ends that
later runs of a recording replay (each replay against a run that
computes everything), and unit coverage of the global pin
controller's budget edge cases.
"""

from __future__ import annotations

import dataclasses
import gc
from array import array

import pytest

from repro.core.attributes import PatternType
from repro.core.errors import ConfigurationError
from repro.core.xmemlib import XMemLib
from repro.cpu.trace import MemAccess, PackedTrace, Work, XMemOp
from repro.cpu.vector_engine import fold_ceiling
from repro.mem.cache import Cache
from repro.sim.config import CpuConfig, scaled_config
from repro.sim.corun import CorunSystem, MultiProcessController
from repro.sim.runner import record_suite_trace
from repro.testing.checks import CheckError, check_cache_set
from repro.testing.fuzz import l1_state_delta
from repro.testing.oracles import ReferenceCorun

PAIRS = [
    ("mcf", "lbm"),
    ("omnetpp", "sc"),
    ("libquantum", "GemsFDTD"),
]


def build_pair(names, mode, accesses=2500, footprint_div=256, cfg=None):
    """A co-run system for one mix (XMem on core 0 in ``"xmem"``
    mode) and its per-core traces."""
    return build_mix([record_suite_trace(name, accesses, footprint_div)
                      for name in names], mode, cfg)


def build_mix(recordings, mode, cfg=None):
    """A co-run system over ``recordings`` (XMem on core 0 in
    ``"xmem"`` mode) and its per-core traces, which share the
    recordings' columns."""
    cfg = cfg or scaled_config(32)
    xmem = (0,) if mode == "xmem" else ()
    system = CorunSystem(cfg, len(recordings), xmem_cores=xmem)
    traces = []
    for core, recording in zip(system.cores, recordings):
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

    monkeypatch.setattr(vector_engine, "dyadic_k", lambda values: 40)
    stats_ref, snap_ref = run_pair(PAIRS[0], "xmem", "reference")
    stats_packed, snap_packed = run_pair(PAIRS[0], "xmem", "packed")
    assert stats_packed == stats_ref
    assert snap_packed == snap_ref
    assert all(s.cycles > 3 * 2 ** 12 for s in stats_packed)


# -- The MRU-run fold: L1 stamps, clock and dirty bits -------------------

def _assert_l1s_equal(ref_system, system):
    """Every core's L1 tags (relabelled by the core's offset), dirty
    bits, LRU stamps and clock equal the reference run's."""
    for ref_core, core in zip(ref_system.cores, system.cores):
        assert l1_state_delta(ref_core.l1, core.l1, core.offset) is None


@pytest.mark.parametrize("mode", ["baseline", "xmem"])
def test_l1_stamps_and_clock_equal_reference(mode):
    """At run end each core's L1 stamps and clock equal
    ``ReferenceCorun``'s, on a machine whose 64-set L1s fold many MRU
    re-hits."""
    cfg = scaled_config(1)
    ref_system, traces = build_pair(PAIRS[0], mode, cfg=cfg)
    stats_ref = ReferenceCorun(ref_system).run(traces)
    system, traces = build_pair(PAIRS[0], mode, cfg=cfg)
    assert system.run(traces) == stats_ref
    assert system.stats_snapshot() == ref_system.stats_snapshot()
    _assert_l1s_equal(ref_system, system)


def _fold_corun(streams, cfg=None, xmem=False):
    """Run per-core event ``streams`` through ``ReferenceCorun`` and
    ``CorunSystem.run`` (core 0 with XMem and atoms 0 and 1 when
    ``xmem``); require equal stats, snapshots and L1 state.  Returns
    the production system."""
    from repro.testing.generators import GenConfig, setup_atoms

    systems = []
    for _ in range(2):
        system = CorunSystem(cfg or scaled_config(32), len(streams),
                             xmem_cores=(0,) if xmem else ())
        if xmem:
            setup_atoms(system.cores[0].xmemlib, GenConfig(atoms=2))
        systems.append(system)
    ref_system, system = systems
    stats_ref = ReferenceCorun(ref_system).run([list(s) for s in streams])
    assert system.run([PackedTrace.from_events(s) for s in streams]) \
        == stats_ref
    assert system.stats_snapshot() == ref_system.stats_snapshot()
    _assert_l1s_equal(ref_system, system)
    return system


def _runs_stream(base, lines=24, repeat=3, span=64):
    """``lines`` lines ``span`` bytes apart, each accessed ``repeat``
    times in a row (the last of every third run a write), Work between
    some accesses, in two passes."""
    events = []
    for _ in range(2):
        for k in range(lines):
            for r in range(repeat):
                events.append(MemAccess(base + k * span,
                                        r == repeat - 1 and k % 3 == 0, r))
                if (k + r) % 4 == 0:
                    events.append(Work(2))
    return events


class TestMruFold:
    """Edge cases of the fold in co-run, each against
    ``ReferenceCorun`` on stats, snapshot, L1 dirty bits, stamps and
    clock."""

    def test_read_miss_with_a_write_follower(self):
        l1 = CorunSystem(scaled_config(32), 2).cores[1].l1
        span = l1.num_sets * l1.line_bytes
        x = 0x80000
        stream = [MemAccess(x, False), MemAccess(x, True),
                  MemAccess(x, False)]
        stream += [MemAccess(x + k * span) for k in range(1, l1.ways + 1)]
        system = _fold_corun([_runs_stream(0x40000), stream])
        assert system.cores[1].l1.stats.writebacks == 1

    @pytest.mark.parametrize("chunk", [2, 3, 5, 16])
    def test_run_across_a_chunk_boundary(self, monkeypatch, chunk):
        from repro.cpu import vector_engine

        monkeypatch.setattr(vector_engine, "CHUNK", chunk)
        _fold_corun([_runs_stream(0x40000, lines=12, repeat=4),
                     _runs_stream(0x90000, lines=8, repeat=3)])

    def test_work_and_xmem_ops_inside_a_run(self):
        x = 0x1000
        stream = [
            XMemOp("atom_map", 1, x, 256),
            MemAccess(x, False, 3),
            Work(7),
            XMemOp("atom_activate", 1),
            MemAccess(x, True, 0),
            Work(1),
            XMemOp("atom_deactivate", 1),
            MemAccess(x, False, 2),
            MemAccess(x + 64, True, 0),
            Work(2),
            MemAccess(x + 64, False, 0),
            XMemOp("atom_unmap", 1, x, 256),
            MemAccess(x, False, 0),
        ]
        _fold_corun([stream, _runs_stream(0x40000)], xmem=True)

    @pytest.mark.parametrize("geometry", ["one-way", "one-set"])
    def test_degenerate_l1(self, geometry):
        cfg = scaled_config(32)
        size, ways = (16 * 64, 1) if geometry == "one-way" else (8 * 64, 8)
        levels = list(cfg.levels)
        levels[0] = dataclasses.replace(levels[0], size_bytes=size,
                                        ways=ways)
        cfg = dataclasses.replace(cfg, levels=levels)
        system = _fold_corun([_runs_stream(0x40000),
                              _runs_stream(0x90000, repeat=2)], cfg)
        assert all(c.l1.stats.writebacks > 0 for c in system.cores)

    def test_issue_width_3(self):
        cfg = dataclasses.replace(scaled_config(32),
                                  cpu=CpuConfig(issue_width=3))
        _fold_corun([_runs_stream(0x40000), _runs_stream(0x90000)], cfg)


# -- Stored front-ends: recorded_front_end --------------------------------

def _copied(trace):
    """``trace`` on fresh copies of its columns, which no stored
    front-end is keyed on."""
    return PackedTrace(array("q", trace.vaddr), array("q", trace.meta),
                       trace.xmem)


def _fresh_snapshot(recordings, mode, cfg=None, runs=1):
    """The snapshot of ``runs`` runs of one system over copies of the
    recordings' columns: every front-end computed, none replayed."""
    system, traces = build_mix(recordings, mode, cfg)
    traces = [_copied(t) for t in traces]
    for _ in range(runs):
        system.run(traces)
    return system.stats_snapshot()


@pytest.fixture
def misses(monkeypatch):
    """The cores whose front-end was computed rather than replayed
    (one entry per miss, its dense length)."""
    from repro.cpu import vector_engine

    seen = []
    record = vector_engine._record

    def counting(l1, l2, stride, line_bytes, trace, *rest):
        seen.append(len(trace))
        return record(l1, l2, stride, line_bytes, trace, *rest)

    monkeypatch.setattr(vector_engine, "_record", counting)
    return seen


def _mix_recordings(names=PAIRS[0]):
    return [record_suite_trace(name, 2500, 256) for name in names]


def _key(trace):
    """The key of ``trace``'s stored front-ends."""
    return (id(trace.vaddr), id(trace.meta), len(trace.vaddr),
            len(trace.meta))


@pytest.mark.parametrize("order", [("baseline", "xmem"),
                                   ("xmem", "baseline")])
def test_stored_front_end_serves_the_other_mode(order, misses):
    """The first mode computes each tenant's front-end; the second, on
    a fresh system over the same recordings, replays it -- and both
    snapshot exactly like runs that compute everything."""
    recordings = _mix_recordings()
    fresh = {mode: _fresh_snapshot(recordings, mode) for mode in order}
    misses.clear()
    for mode in order:
        system, traces = build_mix(recordings, mode)
        system.run(traces)
        assert len(misses) == len(recordings)
        assert system.stats_snapshot() == fresh[mode]


@pytest.mark.parametrize("mode", ["baseline", "xmem"])
def test_one_tenant_twice(mode, misses):
    """Two cores over one recording share one stored front-end (in
    ``xmem`` mode one core replays it with the XMemOps, the other
    without), computed by both in the first run and replayed by both
    in the second."""
    recordings = _mix_recordings(("mcf",)) * 2
    fresh = _fresh_snapshot(recordings, mode)
    misses.clear()
    for _ in range(2):
        system, traces = build_mix(recordings, mode)
        system.run(traces)
        assert len(misses) == 2
        assert system.stats_snapshot() == fresh


def test_warm_system_is_not_served(misses):
    """A second run on the same system starts from warm L1s and L2s:
    it computes its front-ends, as a system that never stores does."""
    recordings = _mix_recordings()
    fresh = _fresh_snapshot(recordings, "xmem", runs=2)
    first, traces = build_mix(recordings, "xmem")
    first.run(traces)
    misses.clear()
    system, traces = build_mix(recordings, "xmem")
    system.run(traces)
    assert misses == []                       # a cold system hits
    system.run(traces)
    assert len(misses) == 2
    assert system.stats_snapshot() == fresh


def test_other_scale_misses(misses):
    """Scale 16's private levels differ from scale 32's: one recording
    run at both computes both front-ends."""
    recordings = _mix_recordings()
    configs = (scaled_config(32), scaled_config(16))
    fresh = [_fresh_snapshot(recordings, "baseline", cfg)
             for cfg in configs]
    misses.clear()
    for cfg, snapshot in zip(configs, fresh):
        system, traces = build_mix(recordings, "baseline", cfg)
        system.run(traces)
        assert system.stats_snapshot() == snapshot
    assert len(misses) == 4


def test_entry_dies_with_its_recording():
    """An entry is keyed weakly on its columns: dropping the recording
    frees it."""
    from repro.cpu import vector_engine

    recordings = _mix_recordings()
    system, traces = build_mix(recordings, "baseline")
    system.run(traces)
    keys = [_key(t) for t in traces]
    assert all(key in vector_engine._RECORDED for key in keys)
    del recordings, system, traces
    gc.collect()
    assert not any(key in vector_engine._RECORDED for key in keys)


@pytest.mark.parametrize("corrupt", ["records", "end state"])
def test_checked_replay_catches_a_corrupted_entry(corrupt, monkeypatch):
    """Under ``REPRO_CHECK`` a replay recomputes the front-end: a
    stored record code or L1/L2 end state that differs raises."""
    from repro.cpu import vector_engine

    recordings = _mix_recordings()
    system, traces = build_mix(recordings, "baseline")
    system.run(traces)
    entry = vector_engine._RECORDED[_key(traces[1])][1][0]
    if corrupt == "records":
        entry.chunks[0][3][0] ^= 2            # flip the first L2 hit bit
    else:                                     # another tenant's
        entry.after = vector_engine._private_bytes(system.cores[0].l1,
                                                   system.cores[0].l2, None)
    monkeypatch.setenv("REPRO_CHECK", "1")
    system, traces = build_mix(recordings, "baseline")
    with pytest.raises(ConfigurationError, match=corrupt):
        system.run(traces)


def test_threads_share_the_store():
    """Points run on threads (``repro serve``'s thread executor) share
    the store: six threads over one recording pair, with a short
    switch interval, each snapshot like a computed run, and each
    stream keeps one entry."""
    import sys
    import threading

    from repro.cpu import vector_engine

    recordings = _mix_recordings()
    fresh = _fresh_snapshot(recordings, "xmem")
    snapshots, errors = [], []

    def run():
        try:
            system, traces = build_mix(recordings, "xmem")
            system.run(traces)
            snapshots.append(system.stats_snapshot())
        except Exception as exc:             # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert snapshots == [fresh] * 6
    for recording in recordings:
        assert len(vector_engine._RECORDED[_key(recording.packed)][1]) == 1


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
