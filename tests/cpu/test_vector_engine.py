"""The ``packed`` tier's fused interpreter: equivalence and fallback.

The load-bearing property mirrors ``test_packed_trace.py`` one level
up: for **every** registered polybench kernel, ``run_vector`` (the
fused columnar interpreter) over the packed columns produces
bit-for-bit the same :class:`EngineStats` -- and the same full stats
snapshot, every cache/DRAM/prefetch counter -- as the scalar
``run_packed`` loop, on both baseline and XMem machines.  The fused
path's correctness domain is guarded by :func:`eligible`; anything
outside it must fall back to the scalar loop rather than answer
wrongly.
"""

import pytest

from repro.core.errors import ConfigurationError
from repro.cpu.tiers import ENGINE_TIERS, resolve_engine_tier, run_tier
from repro.cpu.trace import MemAccess, PackedTrace, Work, XMemOp
from repro.cpu.vector_engine import eligible, run_vector
from repro.sim.config import scaled_config
from repro.sim.system import build_baseline, build_xmem
from repro.workloads.polybench import KERNELS

N = 16
TILE = 8


def mixed_events():
    """A small stream exercising every event shape and op position."""
    return [
        XMemOp("atom_map", 1, 0x1000, 64),
        MemAccess(0x1000, False, 3),
        Work(7),
        XMemOp("atom_activate", 1),
        XMemOp("atom_deactivate", 1),
        MemAccess(0x1040, True, 0),
        Work(1),
        XMemOp("atom_unmap", 1, 0x1000, 64),
    ]


def _pair(kernel, system_builder, with_lib, fused=True):
    """(run_packed handle+stats, run_vector handle+stats) on twin
    machines; ``fused`` says whether the fused path must be taken."""
    cfg = scaled_config(32)
    h_pk = system_builder(cfg)
    packed_a = kernel.build_packed(N, TILE, lib=h_pk.xmemlib)
    trace_a = packed_a if with_lib else packed_a.without_xmem()
    pk_stats = h_pk.engine.run_packed(trace_a)

    h_vec = system_builder(cfg)
    packed_b = kernel.build_packed(N, TILE, lib=h_vec.xmemlib)
    trace_b = packed_b if with_lib else packed_b.without_xmem()
    assert eligible(h_vec.engine, trace_b) is fused
    vec_stats = run_vector(h_vec.engine, trace_b)
    return h_pk, pk_stats, h_vec, vec_stats


# ---------------------------------------------------------------------------
# Equivalence pins: every kernel, both systems, full snapshots
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(KERNELS))
def test_vector_equals_packed_baseline(name):
    h_pk, pk_stats, h_vec, vec_stats = _pair(
        KERNELS[name], build_baseline, with_lib=False)
    assert vec_stats == pk_stats
    assert h_vec.stats_snapshot() == h_pk.stats_snapshot()


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_vector_equals_packed_xmem(name):
    h_pk, pk_stats, h_vec, vec_stats = _pair(
        KERNELS[name], build_xmem, with_lib=True)
    assert vec_stats == pk_stats
    assert h_vec.stats_snapshot() == h_pk.stats_snapshot()


def test_vector_equals_packed_checked_mode(monkeypatch):
    """REPRO_CHECK=1 sends runs to the scalar loop, where the
    per-operation checks live (and every invariant hook holds)."""
    monkeypatch.setenv("REPRO_CHECK", "1")
    h_pk, pk_stats, h_vec, vec_stats = _pair(
        KERNELS["gemm"], build_xmem, with_lib=True, fused=False)
    assert vec_stats == pk_stats
    assert h_vec.stats_snapshot() == h_pk.stats_snapshot()


def test_vector_mixed_events():
    bare = PackedTrace.from_events(mixed_events()).without_xmem()
    cfg = scaled_config(32)
    h_pk = build_baseline(cfg)
    pk = h_pk.engine.run_packed(bare)
    h_vec = build_baseline(cfg)
    vec = run_vector(h_vec.engine, bare)
    assert vec == pk
    assert h_vec.stats_snapshot() == h_pk.stats_snapshot()


@pytest.mark.parametrize("system", ["baseline", "xmem"])
@pytest.mark.parametrize("kernel,tile", [
    ("gemm", 12), ("gemm", 48), ("mvt", 12), ("mvt", 48)])
def test_sweep_points_match_reference(kernel, tile, system):
    """The tier gate's sweep points (``repro sweep --kernels gemm,mvt
    --n 48 --tiles 12,48``), built as the runner builds them: the
    packed tier and the object-event reference engine give the same
    EngineStats and the same full stats snapshot."""
    from repro.cpu.trace import strip_xmem
    from repro.sim.runner import SYSTEM_BUILDERS, SimPoint, record_trace
    from repro.testing.oracles import with_reference_engine

    point = SimPoint(kernel, 48, tile)
    cfg = point.config()
    recording = record_trace(kernel, 48, tile)
    h_pk = SYSTEM_BUILDERS[system](cfg)
    pk = h_pk.run(recording.replay(h_pk.xmemlib), "packed")
    h_ref = with_reference_engine(SYSTEM_BUILDERS[system](cfg))
    trace = recording.replay(h_ref.xmemlib)
    ref = h_ref.engine.run(trace if h_ref.xmemlib is not None
                           else strip_xmem(trace))
    assert pk == ref
    assert h_pk.stats_snapshot() == h_ref.stats_snapshot()


# ---------------------------------------------------------------------------
# Eligibility gates and the fallback contract
# ---------------------------------------------------------------------------

class TestEligibility:
    def _handle(self):
        h = build_baseline(scaled_config(32))
        return h, KERNELS["gemm"].build_packed(N, TILE).without_xmem()

    def test_baseline_machine_is_eligible(self):
        h, trace = self._handle()
        assert eligible(h.engine, trace)

    def test_object_stream_is_not(self):
        h, trace = self._handle()
        assert not eligible(h.engine, list(trace.events()))

    def test_perfect_row_buffer_is_eligible(self):
        h, trace = self._handle()
        h.dram.perfect_rbl = True
        assert eligible(h.engine, trace)

    @pytest.mark.parametrize("component", ["cache", "mshr"])
    def test_installed_checks_fall_back(self, component):
        """Checked components take the scalar loop, even when the
        engine itself was built with checks off."""
        h, trace = self._handle()
        if component == "cache":
            h.memory.hierarchy.levels[1]._install_checks()
        else:
            h.engine.mshr._install_checks()
        assert not eligible(h.engine, trace)

    def test_non_pow2_issue_width_falls_back(self):
        h, trace = self._handle()
        h.engine.issue_width = 3
        assert not eligible(h.engine, trace)

    def test_prefetch_log_hook_falls_back(self):
        h, trace = self._handle()
        h.memory._prefetch_log = []
        assert not eligible(h.engine, trace)

    def test_fallback_still_runs_exactly(self):
        """An ineligible shape answers through run_packed, not wrongly."""
        cfg = scaled_config(32)
        h_pk = build_baseline(cfg)
        trace = KERNELS["gemm"].build_packed(N, TILE).without_xmem()
        pk = h_pk.engine.run_packed(trace)
        h_vec = build_baseline(cfg)
        h_vec.memory._prefetch_log = []
        vec = run_vector(h_vec.engine, trace)
        assert vec == pk


# ---------------------------------------------------------------------------
# Suite-catalog shapes (Use Case 2 machines, pre-translated streams)
# ---------------------------------------------------------------------------

def _suite_twin(name, accesses=8_000, perfect_rbl=False):
    """Twin translation-free UC2 machines + the workload's physical
    stream (the full-size 27-workload sweep runs out of band; this
    pins the same machine shape in-tree at test-sized streams)."""
    from repro.cpu.engine import TraceEngine
    from repro.dram.system import DramSystem
    from repro.mem.hierarchy import CacheHierarchy
    from repro.mem.prefetch import MultiStridePrefetcher
    from repro.sim import usecase2 as uc2
    from repro.sim.system import MemorySystem
    from repro.sim.usecase2 import usecase2_config
    from repro.workloads.suite import BY_NAME
    from repro.xos.loader import OperatingSystem

    wl = BY_NAME[name]
    cfg = usecase2_config()
    osys = OperatingSystem(cfg.dram_geometry, mapping=uc2.XMEM_MAPPING,
                           allocator="randomized", seed=17)
    proc = osys.create_process()
    bases = wl.instantiate(proc)
    events = []
    for i, ev in enumerate(wl.trace(bases)):
        if i >= accesses:
            break
        if isinstance(ev, MemAccess):
            ev = MemAccess(proc.translate(ev.vaddr), ev.is_write, ev.work)
        events.append(ev)

    def machine():
        hierarchy = CacheHierarchy(cfg.levels, cfg.line_bytes)
        dram = DramSystem(geometry=cfg.dram_geometry,
                          timing=cfg.timing(), mapping=uc2.XMEM_MAPPING,
                          perfect_rbl=perfect_rbl)
        stride = MultiStridePrefetcher(
            streams=cfg.prefetcher.streams, degree=cfg.prefetcher.degree,
            line_bytes=cfg.line_bytes)
        memory = MemorySystem(hierarchy, dram, stride_prefetcher=stride)
        engine = TraceEngine(memory, xmemlib=None,
                             issue_width=cfg.cpu.issue_width,
                             window=cfg.cpu.window)
        return memory, engine

    return machine, PackedTrace.from_events(events)


@pytest.mark.parametrize("name", ["mcf", "milc", "lbm", "kmeans", "spmv"])
def test_vector_equals_packed_suite_shapes(name):
    _check_suite_twin(name)


@pytest.mark.parametrize("name", ["mcf", "lbm"])
def test_vector_equals_packed_perfect_row_buffer(name):
    """The Ideal system's forced row hits, inlined at every DRAM
    read site of the fused loop."""
    _check_suite_twin(name, perfect_rbl=True)


def _check_suite_twin(name, perfect_rbl=False):
    from repro.sim.system import SystemHandle

    machine, packed = _suite_twin(name, perfect_rbl=perfect_rbl)
    m_pk, e_pk = machine()
    pk = e_pk.run_packed(packed)
    m_vec, e_vec = machine()
    assert eligible(e_vec, packed)
    vec = run_vector(e_vec, packed)
    assert vec == pk
    h_pk = SystemHandle(name="t", config=None, engine=e_pk, memory=m_pk)
    h_vec = SystemHandle(name="t", config=None, engine=e_vec, memory=m_vec)
    assert h_vec.stats_snapshot() == h_pk.stats_snapshot()


# ---------------------------------------------------------------------------
# Tier selection / dispatch
# ---------------------------------------------------------------------------

class TestTierSelector:
    def test_default_is_packed(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert resolve_engine_tier() == "packed"

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "analytical")
        assert resolve_engine_tier() == "analytical"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "analytical")
        assert resolve_engine_tier("packed") == "packed"

    def test_unknown_tier_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "warp")
        with pytest.raises(ConfigurationError, match="warp"):
            resolve_engine_tier()

    def test_registry_shape(self):
        assert ENGINE_TIERS == ("packed", "analytical")

    def test_vector_is_not_a_tier(self):
        """One exact tier: the fused interpreter *is* packed, and the
        object-event interpreter lives on only as the test oracle."""
        for name in ("vector", "object"):
            with pytest.raises(ConfigurationError, match=name):
                resolve_engine_tier(name)

    def test_packed_tier_runs_the_fused_interpreter(self, monkeypatch):
        from repro.cpu import vector_engine

        calls = []
        real = vector_engine.run_vector

        def spy(engine, trace):
            calls.append(eligible(engine, trace))
            return real(engine, trace)

        monkeypatch.setattr(vector_engine, "run_vector", spy)
        h = build_baseline(scaled_config(32))
        h.run(KERNELS["gemm"].build_packed(N, TILE), engine_tier="packed")
        assert calls == [True]

    @pytest.mark.parametrize("form", ["object", "packed"])
    def test_exact_tiers_agree_via_run_tier(self, form):
        """The exact tier through ``run_tier`` matches the scalar loop,
        whether the caller passes an object stream or packed columns."""
        cfg = scaled_config(32)
        h_ref = build_xmem(cfg)
        trace = KERNELS["mvt"].build_packed(N, TILE, lib=h_ref.xmemlib)
        ref = h_ref.engine.run_packed(trace)
        h = build_xmem(cfg)
        trace2 = KERNELS["mvt"].build_packed(N, TILE, lib=h.xmemlib)
        if form == "object":
            trace2 = list(trace2.events())
        assert run_tier(h.engine, trace2, "packed") == ref

    def test_every_tier_accepts_object_streams(self):
        """Tier selection never changes what a caller may pass."""
        for tier in ENGINE_TIERS:
            h = build_baseline(scaled_config(32))
            stats = run_tier(h.engine, mixed_events()[1:2], tier)
            assert stats.mem_accesses == 1

    def test_system_handle_run_takes_tier(self, monkeypatch):
        from repro.sim.analytical import estimate_packed

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        cfg = scaled_config(32)
        trace = KERNELS["gemm"].build_packed(N, TILE).without_xmem()
        est = estimate_packed(build_baseline(cfg).engine, trace)
        h = build_baseline(cfg)
        assert h.run(trace, engine_tier="analytical") == est
        assert h.run(trace) != est          # default: packed

    def test_system_handle_run_reads_env(self, monkeypatch):
        from repro.sim.analytical import estimate_packed

        monkeypatch.setenv("REPRO_ENGINE", "analytical")
        cfg = scaled_config(32)
        trace = KERNELS["gemm"].build_packed(N, TILE).without_xmem()
        est = estimate_packed(build_baseline(cfg).engine, trace)
        h = build_baseline(cfg)
        assert h.run(trace) == est
        assert h.run(trace, engine_tier="packed") != est


# ---------------------------------------------------------------------------
# apply_hit_run: the batched L1 hit replay primitive
# ---------------------------------------------------------------------------

class TestApplyHitRun:
    @pytest.mark.parametrize("policy", ["lru", "drrip"])
    def test_matches_sequential_hits(self, policy):
        """One batched call == the same hits applied one at a time,
        observed through victim choice and counters afterwards."""
        from repro.mem.cache import Cache

        def build():
            c = Cache("t", 4 * 2 * 64, 2, 64, policy=policy)
            for a in (0x000, 0x100):     # fill set 0 both ways
                c.fill(a, dirty=False)
            return c

        run = [0x100, 0x000, 0x100]      # last-occurrence order: 0, 100
        seq = build()
        for a in run:
            assert seq.access(a, False).hit
        bat = build()
        replay = [(0, 0), (0, 1)]        # unique (set, tag), last occ.
        bat.apply_hit_run(len(run), replay, written=[])
        assert bat.stats.accesses == seq.stats.accesses
        assert bat.stats.hits == seq.stats.hits
        # Future behaviour is identical: both evict the same victim.
        seq.fill(0x200, dirty=False)
        bat.fill(0x200, dirty=False)
        assert seq.probe(0x000) == bat.probe(0x000)
        assert seq.probe(0x100) == bat.probe(0x100)

    def test_written_sets_dirty(self):
        from repro.mem.cache import Cache

        c = Cache("t", 4 * 2 * 64, 2, 64, policy="lru")
        c.fill(0x000, dirty=False)
        c.apply_hit_run(1, [(0, 0)], written=[(0, 0)])
        # Evicting the line must now produce a writeback.
        c.fill(0x100, dirty=False)
        assert c.fill(0x200, dirty=False) == 0x000
