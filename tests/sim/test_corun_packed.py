"""The co-run interleaver vs. the per-event reference oracle.

:meth:`CorunSystem.run` (heap-scheduled, with private stretches
fast-forwarded) must be bit-identical to
:class:`~repro.testing.oracles.ReferenceCorun` -- CoreStats and the
full stats snapshot -- on real suite-catalog tenant mixes, baseline
and XMem, and on a machine shape outside the fast-forward domain.
Plus unit coverage of the global pin controller's budget edge cases.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.attributes import PatternType
from repro.core.xmemlib import XMemLib
from repro.mem.cache import Cache
from repro.sim.config import CpuConfig, scaled_config
from repro.sim.corun import CorunSystem, MultiProcessController
from repro.sim.runner import record_suite_trace
from repro.testing.oracles import ReferenceCorun

PAIRS = [
    ("mcf", "lbm"),
    ("omnetpp", "sc"),
    ("libquantum", "GemsFDTD"),
]


def run_pair(names, mode, engine, accesses=2500, footprint_div=256,
             cfg=None):
    """One mix through ``engine``: ``"reference"`` (the per-event
    oracle), ``"packed"`` (``CorunSystem.run``) or ``"object"``
    (``CorunSystem.run`` over materialized event streams)."""
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
    """Issue width 3 is off the dyadic time grid, so the heap runs
    without fast-forwarding -- every event a yield point -- and must
    still match the reference exactly."""
    cfg = dataclasses.replace(scaled_config(32),
                              cpu=CpuConfig(issue_width=3))
    assert not CorunSystem(cfg, 2).packed_eligible()
    stats_ref, snap_ref = run_pair(PAIRS[0], mode, "reference", cfg=cfg)
    stats_packed, snap_packed = run_pair(PAIRS[0], mode, "packed",
                                         cfg=cfg)
    assert stats_packed == stats_ref
    assert snap_packed == snap_ref


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
