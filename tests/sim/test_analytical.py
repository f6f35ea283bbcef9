"""The analytical estimator tier: exactness domain and error bounds.

Three layers of pinning:

* **L1 is exact.**  The L1 stack-distance automaton reproduces the
  machine's LRU L1 hit/miss split event for event, on every
  :mod:`repro.testing.generators` family.
* **Miss-count error is bounded.**  On baseline-shaped machines
  (LRU/RRIP levels, stride prefetcher, no pins, no XMem) the estimated
  ``misses_to_memory`` stays within the documented 2% relative bound
  of the exact engine -- both on generator families and on a suite
  catalog subset including the historically worst workload (milc).
* **The tier is non-invasive.**  Estimation moves no machine counter
  and only sets ``engine.last_stats``.
"""

import pytest

from repro.cpu.engine import TraceEngine
from repro.cpu.trace import PackedTrace
from repro.dram.system import DramSystem
from repro.mem.hierarchy import CacheHierarchy
from repro.mem.prefetch import MultiStridePrefetcher
from repro.sim import usecase2 as uc2
from repro.sim.analytical import AnalyticalEstimate, estimate, estimate_packed
from repro.sim.config import scaled_config
from repro.sim.system import MemorySystem, build_baseline
from repro.sim.usecase2 import usecase2_config
from repro.testing.generators import GenConfig, generate_trace
from repro.workloads.suite import BY_NAME
from repro.xos.loader import OperatingSystem

#: The documented relative miss-count bound (docs/simulator.md).
BOUND = 0.02

#: Generator families: strided, pointer-chase, hot-set, and the mix.
FAMILIES = {
    "strided": GenConfig(seed=11, length=3000, mix=(1.0, 0.0, 0.0)),
    "chase": GenConfig(seed=12, length=3000, mix=(0.0, 1.0, 0.0)),
    "hotset": GenConfig(seed=13, length=3000, mix=(0.0, 0.0, 1.0)),
    "mixed": GenConfig(seed=14, length=3000, regions=6,
                       write_frac=0.5, region_bytes=1 << 17),
}


def _twin_run(cfg_gen):
    """(exact stats, exact handle, estimate) for one generated trace."""
    events, _ = generate_trace(cfg_gen)
    cfg = scaled_config(32)
    h = build_baseline(cfg)
    exact = h.run(list(events))
    est = estimate(h.engine, PackedTrace.from_events(events))
    return exact, h, est


class TestGeneratorFamilies:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_l1_is_exact(self, family):
        exact_stats, h, est = _twin_run(FAMILIES[family])
        l1 = h.memory.hierarchy.levels[0].stats
        assert est.level_hits[0] == l1.hits
        assert est.level_misses[0] == l1.misses
        assert est.stats.mem_accesses == exact_stats.mem_accesses
        assert est.stats.instructions == exact_stats.instructions

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_miss_count_within_bound(self, family):
        exact_stats, _, est = _twin_run(FAMILIES[family])
        got = est.stats.misses_to_memory
        want = exact_stats.misses_to_memory
        assert abs(got - want) <= max(BOUND * want, 1), (
            f"{family}: est={got} exact={want}")

    @pytest.mark.parametrize("seed", range(5))
    def test_miss_count_within_bound_random_shapes(self, seed):
        cfg_gen = GenConfig(seed=100 + seed, length=2000,
                            regions=2 + seed % 4,
                            write_frac=0.1 * seed,
                            region_bytes=1 << (14 + seed % 3))
        exact_stats, _, est = _twin_run(cfg_gen)
        got = est.stats.misses_to_memory
        want = exact_stats.misses_to_memory
        assert abs(got - want) <= max(BOUND * want, 1)


def _suite_machine(name):
    """One Use-Case-2 baseline machine + the workload's physical
    stream, translated while packing as the Use Case 2 runner does."""
    wl = BY_NAME[name]
    cfg = usecase2_config()
    osys = OperatingSystem(cfg.dram_geometry, mapping=uc2.XMEM_MAPPING,
                           allocator="randomized", seed=17)
    proc = osys.create_process()
    bases = wl.instantiate(proc)
    hierarchy = CacheHierarchy(cfg.levels, cfg.line_bytes)
    dram = DramSystem(geometry=cfg.dram_geometry, timing=cfg.timing(),
                      mapping=uc2.XMEM_MAPPING)
    stride = MultiStridePrefetcher(streams=cfg.prefetcher.streams,
                                   degree=cfg.prefetcher.degree,
                                   line_bytes=cfg.line_bytes)
    memory = MemorySystem(hierarchy, dram, stride_prefetcher=stride)
    engine = TraceEngine(memory, xmemlib=None,
                         issue_width=cfg.cpu.issue_width,
                         window=cfg.cpu.window)
    events = []
    for i, ev in enumerate(wl.trace(bases)):
        if i >= 12_000:
            break
        events.append(ev)
    return engine, uc2._pack_physical(events, proc.translate)


class TestSuiteBound:
    #: Stream-, table-, graph- and mixed-shaped representatives; milc
    #: is the workload that historically sat furthest from the bound.
    SUBSET = ("milc", "mcf", "lbm", "kmeans", "spmv")

    @pytest.mark.parametrize("name", SUBSET)
    def test_miss_count_within_bound(self, name):
        engine, packed = _suite_machine(name)
        exact = engine.run(packed)
        est = estimate(engine, packed)
        got = est.stats.misses_to_memory
        want = exact.misses_to_memory
        assert want > 0
        assert abs(got - want) <= max(BOUND * want, 1), (
            f"{name}: est={got} exact={want}")


class TestTierContract:
    def test_machine_untouched_and_last_stats_set(self):
        events, _ = generate_trace(GenConfig(seed=5, length=500))
        h = build_baseline(scaled_config(32))
        stats = estimate_packed(h.engine, PackedTrace.from_events(events))
        assert h.engine.last_stats is stats
        assert h.memory.hierarchy.llc.stats.accesses == 0
        assert h.dram.stats.reads == 0
        assert stats.mem_accesses > 0
        assert stats.cycles > 0

    def test_accepts_object_streams(self):
        events, _ = generate_trace(GenConfig(seed=6, length=300))
        h = build_baseline(scaled_config(32))
        est_obj = estimate_packed(h.engine, list(events))
        h2 = build_baseline(scaled_config(32))
        est_pk = estimate_packed(h2.engine, PackedTrace.from_events(events))
        assert est_obj == est_pk

    def test_estimate_returns_detail(self):
        events, _ = generate_trace(GenConfig(seed=7, length=300))
        h = build_baseline(scaled_config(32))
        est = estimate(h.engine, PackedTrace.from_events(events))
        assert isinstance(est, AnalyticalEstimate)
        assert len(est.level_hits) == len(h.memory.hierarchy.levels)
        assert est.stats.misses_to_memory == est.level_misses[-1]
